package harness

import (
	"fmt"
	"strings"
)

// Finding is a checked claim from Section VI of the paper.
type Finding struct {
	ID     string // "O1" … "O5"
	Claim  string
	Holds  bool
	Detail string
}

// String renders the finding on one line.
func (f Finding) String() string {
	verdict := "HOLDS"
	if !f.Holds {
		verdict = "FAILS"
	}
	return fmt.Sprintf("%s [%s] %s — %s", f.ID, verdict, f.Claim, f.Detail)
}

// Observation1 checks "the bisection algorithms improve as the average
// degree increases": on 𝒢breg the plain algorithms' mean cut relative to
// the planted width must be markedly worse at degree 3 than at degree 4,
// and degree-4 runs must essentially find the planted bisection.
func Observation1(d3, d4 *TableResult) Finding {
	f := Finding{ID: "O1", Claim: "quality improves with average degree (Gbreg d=3 vs d=4)"}
	r3 := cutExcessRatio(d3, "kl")
	r4 := cutExcessRatio(d4, "kl")
	s3 := cutExcessRatio(d3, "sa")
	s4 := cutExcessRatio(d4, "sa")
	f.Holds = r3 > r4 && s3 > s4
	f.Detail = fmt.Sprintf("mean cut/expected: KL %.1f (d=3) vs %.1f (d=4); SA %.1f vs %.1f", r3, r4, s3, s4)
	return f
}

// cutExcessRatio returns the mean of cut/expected over rows with a known
// positive expected width.
func cutExcessRatio(tr *TableResult, alg string) float64 {
	var sum float64
	var n int
	for _, row := range tr.Rows {
		if row.Expected <= 0 {
			continue
		}
		if c, ok := row.Cells[alg]; ok {
			sum += c.Cut / float64(row.Expected)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Observation2 checks "compaction improves performance on small-degree
// graphs both in time and quality": on 𝒢breg(·, b, 3) both CKL and CSA
// must deliver large positive cut improvements. CKL's mean speed-up is
// reported but not checked: it rests on one wall-clock run per cell.
func Observation2(d3 *TableResult) Finding {
	f := Finding{ID: "O2", Claim: "compaction improves quality (and KL speed) on degree-3 graphs"}
	klImp := d3.MeanImprovement("kl")
	saImp := d3.MeanImprovement("sa")
	klSpeed := meanSpeedUp(d3, "kl")
	f.Holds = klImp > 30 && saImp > 30
	f.Detail = fmt.Sprintf("mean cut improvement: CKL %.1f%%, CSA %.1f%%; CKL speed-up %.1f%%", klImp, saImp, klSpeed)
	return f
}

func meanSpeedUp(tr *TableResult, inner string) float64 {
	var sum float64
	var n int
	for _, row := range tr.Rows {
		if v, ok := row.SpeedUp[inner]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Observation3 checks "compaction also helps on some special graphs": the
// mean cut improvement from compaction must be positive for both KL and
// SA on grids, ladders, and binary trees (the paper's Table 1).
func Observation3(special []*TableResult) Finding {
	f := Finding{ID: "O3", Claim: "compaction helps on special graphs (Table 1)"}
	var parts []string
	holds := true
	for _, tr := range special {
		kl := tr.MeanImprovement("kl")
		sa := tr.MeanImprovement("sa")
		// "Helps" = does not hurt on any family and strictly helps
		// somewhere; per-family we require non-negative mean.
		if kl < 0 || sa < 0 {
			holds = false
		}
		parts = append(parts, fmt.Sprintf("%s: KL %.0f%%, SA %.0f%%", tr.Title, kl, sa))
	}
	f.Holds = holds
	f.Detail = strings.Join(parts, "; ")
	return f
}

// Observation4 checks "without compaction KL runs faster and produces
// better solutions than SA — except on binary trees and ladders, where SA
// wins on quality".
func Observation4(random []*TableResult, trees, ladders *TableResult) Finding {
	f := Finding{ID: "O4", Claim: "plain KL faster than plain SA, and better except on trees/ladders"}
	fasterEverywhere := true
	betterOnRandom := true
	var detail []string
	for _, tr := range random {
		kt, st := tr.MeanSeconds("kl"), tr.MeanSeconds("sa")
		if kt >= st {
			fasterEverywhere = false
		}
		kc, sc := tr.MeanCut("kl"), tr.MeanCut("sa")
		if kc > sc*1.05 { // allow 5% noise band
			betterOnRandom = false
		}
		detail = append(detail, fmt.Sprintf("%s: KL %.1f/%0.2fs vs SA %.1f/%0.2fs", tr.ID, kc, kt, sc, st))
	}
	saWinsTrees := trees.MeanCut("sa") <= trees.MeanCut("kl")
	saWinsLadders := ladders.MeanCut("sa") <= ladders.MeanCut("kl")
	f.Holds = fasterEverywhere && betterOnRandom && (saWinsTrees || saWinsLadders)
	f.Detail = fmt.Sprintf("%s; SA beats KL on trees: %v, on ladders: %v",
		strings.Join(detail, "; "), saWinsTrees, saWinsLadders)
	return f
}

// Observation5 checks "with compaction, SA is still slower than KL but
// there is no big difference in the quality of the solutions".
func Observation5(random []*TableResult) Finding {
	f := Finding{ID: "O5", Claim: "with compaction: CSA still slower than CKL, quality comparable"}
	slower := true
	comparable := true
	var detail []string
	for _, tr := range random {
		ct, st := tr.MeanSeconds("ckl"), tr.MeanSeconds("csa")
		if st <= ct {
			slower = false
		}
		cc, sc := tr.MeanCut("ckl"), tr.MeanCut("csa")
		// Comparable: within a factor 2 or an absolute gap of 3 edges.
		if !(sc <= 2*cc+3 && cc <= 2*sc+3) {
			comparable = false
		}
		detail = append(detail, fmt.Sprintf("%s: CKL %.1f/%0.2fs vs CSA %.1f/%0.2fs", tr.ID, cc, ct, sc, st))
	}
	f.Holds = slower && comparable
	f.Detail = strings.Join(detail, "; ")
	return f
}

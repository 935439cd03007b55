// Package gen constructs the graph families used in the paper's
// evaluation:
//
//   - GNP: the Erdős–Rényi model 𝒢np(2n, p) — every edge present
//     independently with probability p;
//   - TwoSet: the planted-bisection model 𝒢2set(2n, pA, pB, bis) — two
//     halves with internal densities pA and pB and exactly bis random
//     cross edges, so bis upper-bounds the bisection width;
//   - BReg: the model 𝒢breg(2n, b, d) of [BCLS87] — d-regular graphs with
//     planted bisection width b, built from two near-regular halves joined
//     by a perfect matching on b+b deficient vertices;
//
// together with the special graphs of Section VI (ladder, grid, complete
// binary tree, cycle collections) and a few additional standard topologies
// used in tests and examples.
//
// All random generators are deterministic functions of the supplied
// *rng.Rand.
package gen

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// GNP samples 𝒢np(n, p): a simple graph on n vertices where each of the
// C(n,2) possible edges is present independently with probability p.
// Sampling uses geometric skipping, so the cost is proportional to the
// number of edges generated rather than to n².
func GNP(n int, p float64, r *rng.Rand) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: GNP with negative n=%d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: GNP with p=%v outside [0,1]", p)
	}
	total := int64(n) * int64(n-1) / 2
	if err := checkSize("GNP", n, int64(p*float64(total))); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(n)
	if p > 0 {
		forEachSkippedIndex(total, p, r, func(k int64) {
			u, v := pairFromIndex(k)
			b.AddEdge(int32(u), int32(v))
		})
	}
	return b.Build()
}

// pairFromIndex maps a linear index k in [0, C(n,2)) to the k-th pair
// (u,v) with u < v, ordering pairs by v then u: index(v) block starts at
// C(v,2).
func pairFromIndex(k int64) (u, v int64) {
	// Find v such that C(v,2) <= k < C(v+1,2).
	v = int64((1 + math.Sqrt(1+float64(8*float64(k)))) / 2)
	for v*(v-1)/2 > k {
		v--
	}
	for (v+1)*v/2 <= k {
		v++
	}
	u = k - v*(v-1)/2
	return u, v
}

// forEachSkippedIndex visits each index in [0, total) independently with
// probability p, using geometric gap sampling.
func forEachSkippedIndex(total int64, p float64, r *rng.Rand, fn func(int64)) {
	if p >= 1 {
		for k := int64(0); k < total; k++ {
			fn(k)
		}
		return
	}
	logq := math.Log1p(-p)
	k := int64(-1)
	for {
		// Geometric(p) gap: floor(log(U)/log(1-p)) + 1.
		u := r.Float64()
		if u == 0 {
			u = 0.5
		}
		gap := int64(math.Log(u)/logq) + 1
		k += gap
		if k >= total {
			return
		}
		fn(k)
	}
}

// TwoSet samples 𝒢2set(2n, pA, pB, bis): vertices 0..n-1 form side A,
// n..2n-1 form side B; internal edges of A (resp. B) appear independently
// with probability pA (resp. pB); exactly bis distinct cross edges are
// placed uniformly at random. The planted bisection (A, B) therefore has
// cut exactly bis, which upper-bounds the bisection width.
func TwoSet(twoN int, pA, pB float64, bis int, r *rng.Rand) (*graph.Graph, error) {
	if twoN < 0 || twoN%2 != 0 {
		return nil, fmt.Errorf("gen: TwoSet needs an even non-negative vertex count, got %d", twoN)
	}
	if pA < 0 || pA > 1 || pB < 0 || pB > 1 {
		return nil, fmt.Errorf("gen: TwoSet with probabilities (%v,%v) outside [0,1]", pA, pB)
	}
	n := twoN / 2
	if bis < 0 || int64(bis) > int64(n)*int64(n) {
		return nil, fmt.Errorf("gen: TwoSet with bis=%d outside [0, n²=%d]", bis, int64(n)*int64(n))
	}
	half := int64(n) * int64(n-1) / 2
	if err := checkSize("TwoSet", twoN, int64(float64(pA*float64(half))+float64(pB*float64(half)))+int64(bis)); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(twoN)
	if pA > 0 {
		forEachSkippedIndex(half, pA, r, func(k int64) {
			u, v := pairFromIndex(k)
			b.AddEdge(int32(u), int32(v))
		})
	}
	if pB > 0 {
		forEachSkippedIndex(half, pB, r, func(k int64) {
			u, v := pairFromIndex(k)
			b.AddEdge(int32(u)+int32(n), int32(v)+int32(n))
		})
	}
	// Exactly bis distinct cross pairs, sampled uniformly without
	// replacement. bis is far below n² in every experiment, so rejection
	// sampling terminates quickly; a map records used pairs.
	used := make(map[int64]struct{}, bis)
	for len(used) < bis {
		a := int64(r.Intn(n))
		c := int64(r.Intn(n))
		key := a*int64(n) + c
		if _, dup := used[key]; dup {
			continue
		}
		used[key] = struct{}{}
		b.AddEdge(int32(a), int32(c)+int32(n))
	}
	return b.Build()
}

// TwoSetForAvgDegree returns the internal edge probability that makes a
// TwoSet(2n, p, p, bis) graph have expected average degree avgDeg. The
// paper's 𝒢2set tables are parameterized by average degree (2.5–4); this
// helper converts that to pA = pB.
func TwoSetForAvgDegree(twoN int, avgDeg float64, bis int) (float64, error) {
	n := twoN / 2
	if twoN <= 2 {
		return 0, fmt.Errorf("gen: TwoSetForAvgDegree needs at least 4 vertices, got %d", twoN)
	}
	// Expected edges: 2 * p * C(n,2) + bis = avgDeg * 2n / 2.
	want := float64(avgDeg*float64(n)) - float64(bis)
	if want < 0 {
		return 0, fmt.Errorf("gen: avg degree %v unreachable: bis=%d alone exceeds it", avgDeg, bis)
	}
	pairs := float64(n) * float64(n-1) // = 2*C(n,2)
	p := want / pairs
	if p > 1 {
		return 0, fmt.Errorf("gen: avg degree %v unreachable with %d vertices", avgDeg, twoN)
	}
	return p, nil
}

// BReg samples 𝒢breg(2n, b, d): a d-regular graph on 2n vertices with a
// planted bisection of width b. Each half is a near-regular graph in
// which b randomly chosen vertices have internal degree d-1 and the rest
// degree d (configuration model, resampled until simple); the two groups
// of deficient vertices are then joined by a random perfect matching of b
// cross edges. The planted (A,B) cut is exactly b.
//
// Feasibility requires 0 <= b <= n, d < n, and n·d − b even (so each
// half's internal degree sum is even).
func BReg(twoN, b, d int, r *rng.Rand) (*graph.Graph, error) {
	if twoN < 0 || twoN%2 != 0 {
		return nil, fmt.Errorf("gen: BReg needs an even vertex count, got %d", twoN)
	}
	n := twoN / 2
	if d < 0 || d >= n {
		return nil, fmt.Errorf("gen: BReg degree d=%d outside [0, n=%d)", d, n)
	}
	if b < 0 || b > n {
		return nil, fmt.Errorf("gen: BReg width b=%d outside [0, n=%d]", b, n)
	}
	if (n*d-b)%2 != 0 {
		return nil, fmt.Errorf("gen: BReg infeasible: n·d−b = %d·%d−%d is odd", n, d, b)
	}
	if b > 0 && d == 0 {
		return nil, fmt.Errorf("gen: BReg with b=%d but d=0", b)
	}
	// Each half holds (n·d−b)/2 edges and the matching b more.
	if err := checkSize("BReg", twoN, int64(n)*int64(d)); err != nil {
		return nil, err
	}
	gb := graph.NewBuilder(twoN)

	// For each half: choose b deficient vertices, give them internal
	// degree d-1, everyone else d; realize with the configuration model.
	deficientA, err := halfBReg(gb, 0, n, b, d, r)
	if err != nil {
		return nil, err
	}
	deficientB, err := halfBReg(gb, int32(n), n, b, d, r)
	if err != nil {
		return nil, err
	}
	// Random perfect matching between the deficient sets.
	r.ShuffleInt32(deficientB)
	for i := range deficientA {
		gb.AddEdge(deficientA[i], deficientB[i])
	}
	return gb.Build()
}

// checkSize refuses a graph of nv vertices and ne edges beyond
// graph.MaxVertices or graph.MaxEdges with an error wrapping
// graph.ErrTooLarge. Every random generator calls it before it allocates
// anything: the configuration model's stub arrays grow with the edge
// count, and the Builder would only refuse the graph once its records
// were filled. GNP and TwoSet draw their edge count at random and pass
// its expectation. ne is read only when nv is within its cap, so a
// caller need not guard its computation against overflow.
func checkSize(model string, nv int, ne int64) error {
	if nv > graph.MaxVertices {
		return fmt.Errorf("gen: %s on %d vertices exceeds limit %d: %w", model, nv, graph.MaxVertices, graph.ErrTooLarge)
	}
	if ne > graph.MaxEdges {
		return fmt.Errorf("gen: %s with %d edges exceeds limit %d: %w", model, ne, graph.MaxEdges, graph.ErrTooLarge)
	}
	return nil
}

// halfBReg adds a near-regular graph on vertices [off, off+n) to gb: b
// random vertices get internal degree d-1, the others d. It returns the
// deficient vertices.
func halfBReg(gb *graph.Builder, off int32, n, b, d int, r *rng.Rand) ([]int32, error) {
	deg := make([]int, n)
	for i := range deg {
		deg[i] = d
	}
	perm := r.Perm(n)
	deficient := make([]int32, b)
	for i := 0; i < b; i++ {
		deg[perm[i]]--
		deficient[i] = off + int32(perm[i])
	}
	pairs, err := configurationModel(deg, r)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(pairs); i += 2 {
		gb.AddEdge(off+pairs[i], off+pairs[i+1])
	}
	return deficient, nil
}

// maxConfigAttempts bounds the rejection loop of the configuration model.
// For bounded degree d the acceptance probability is a constant
// (≈ exp(−(d²−1)/4 − (d−1)/2)), so this is astronomically more than
// enough; it exists to turn pathological inputs into errors rather than
// hangs.
const maxConfigAttempts = 10000

// configurationModel samples a uniform simple graph with the given degree
// sequence via the pairing model with whole-sample rejection: each vertex
// contributes deg[v] stubs, stubs are paired by a uniform random perfect
// matching, and the sample is rejected if it contains a self-loop or a
// parallel edge. Rejection keeps the distribution uniform over simple
// realizations. It returns the accepted pairing as the stub array
// itself: edge k is {pairs[2k], pairs[2k+1]}.
//
// An attempt shuffles the stubs with a downward Fisher–Yates pass, which
// finalizes pair k (stubs 2k and 2k+1) at step 2k and pair 0 at step 1,
// and tests each pair as soon as it is final. A sample with any defect is
// rejected, whichever is found first, so at its first self-loop or
// repeated pair the attempt stops swapping and only draws the pass's
// remaining Intn(i+1) values. It takes the same words from r and reaches
// the same verdict as a full shuffle tested afterwards, so the attempts,
// the accepted pairing and r's position after the call are those of
// shuffling in full and testing after (configurationModelOracle, in the
// tests). Repeated pairs are found in a flat table allocated once per
// call and cleared per attempt: each pair is listed under its smaller
// endpoint, in a row as wide as the largest degree, which for the
// near-regular sequences of BReg and RandomRegular makes the table about
// as large as the stub array.
func configurationModel(deg []int, r *rng.Rand) ([]int32, error) {
	total := 0
	for v, d := range deg {
		if d < 0 {
			return nil, fmt.Errorf("gen: negative degree %d at vertex %d", d, v)
		}
		if d >= len(deg) {
			return nil, fmt.Errorf("gen: degree %d at vertex %d too large for %d vertices", d, v, len(deg))
		}
		total += d
	}
	if total%2 != 0 {
		return nil, fmt.Errorf("gen: odd degree sum %d", total)
	}
	if total == 0 {
		return nil, nil
	}
	stubs := make([]int32, total)
	// The pair table: row u lists the partners v > u of u's pairs so far,
	// as v+1, and a 0 ends the list. A vertex is in at most w pairs, so
	// its row has a free slot whenever one of its pairs is tested.
	w := slices.Max(deg)
	rows := make([]int32, len(deg)*w)

	for attempt := 0; attempt < maxConfigAttempts; attempt++ {
		stubs = stubs[:0]
		for v, d := range deg {
			for i := 0; i < d; i++ {
				stubs = append(stubs, int32(v))
			}
		}
		clear(rows)
		i := total - 1
		for ; i > 0; i-- {
			j := r.Intn(i + 1)
			stubs[i], stubs[j] = stubs[j], stubs[i]
			if i&1 != 0 && i != 1 {
				continue
			}
			// Pair i&^1 is final: i itself after an even step, 0 after
			// step 1.
			u, v := stubs[i&^1], stubs[i|1]
			if u > v {
				u, v = v, u
			}
			if u == v {
				break
			}
			row := rows[int(u)*w:][:w]
			k := 0
			for row[k] != 0 && row[k] != v+1 {
				k++
			}
			if row[k] != 0 {
				break
			}
			row[k] = v + 1
		}
		if i == 0 {
			return stubs, nil
		}
		for i--; i > 0; i-- {
			r.Intn(i + 1)
		}
	}
	return nil, fmt.Errorf("gen: configuration model failed to produce a simple graph after %d attempts", maxConfigAttempts)
}

// RandomRegular samples a uniform simple d-regular graph on n vertices
// (configuration model with rejection). Requires n·d even and d < n.
func RandomRegular(n, d int, r *rng.Rand) (*graph.Graph, error) {
	if n < 0 || d < 0 || d >= n && n > 0 {
		return nil, fmt.Errorf("gen: RandomRegular(n=%d, d=%d) infeasible", n, d)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: RandomRegular(n=%d, d=%d) has odd degree sum", n, d)
	}
	if err := checkSize("RandomRegular", n, int64(n)*int64(d)/2); err != nil {
		return nil, err
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = d
	}
	pairs, err := configurationModel(deg, r)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(n)
	for i := 0; i < len(pairs); i += 2 {
		b.AddEdge(pairs[i], pairs[i+1])
	}
	return b.Build()
}

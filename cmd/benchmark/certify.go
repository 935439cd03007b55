package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/graph"
)

// record is the determinism record of one certified result:
// (instance, alg, seed) → cut and the FNV-64a hash of the sides. Two runs
// of one seed must produce identical records, and so must an op and its
// traced twin.
type record struct {
	Instance string `json:"instance"`
	Alg      string `json:"alg"`
	Seed     uint64 `json:"seed"`
	Cut      int64  `json:"cut"`
	Sides    string `json:"sides_fnv64"`

	planted int64 // the instance's planted width, for cut_ratio
}

// certify recomputes the cut and the side weights of sides over g's CSR,
// sharing nothing with the partition package's incremental gains, and
// checks the reported cut and the balance a unit-weight bisection must
// meet: side weights differing by the parity of the total at most.
func certify(g *graph.Graph, sides []uint8, reported int64) (int64, error) {
	n := g.N()
	if len(sides) != n {
		return 0, fmt.Errorf("%d sides for %d vertices", len(sides), n)
	}
	if g.Weighted() {
		return 0, fmt.Errorf("certify expects a unit-weight graph")
	}
	var cut int64
	var w [2]int64
	for v := int32(0); int(v) < n; v++ {
		s := sides[v]
		if s > 1 {
			return 0, fmt.Errorf("vertex %d has side %d", v, s)
		}
		w[s]++
		for _, e := range g.Neighbors(v) {
			if e.To > v && sides[e.To] != s {
				cut += int64(e.W)
			}
		}
	}
	if cut != reported {
		return cut, fmt.Errorf("reported cut %d, recomputed %d", reported, cut)
	}
	if imb, allowed := abs64(w[0]-w[1]), (w[0]+w[1])%2; imb > allowed {
		return cut, fmt.Errorf("side weights %d/%d are imbalanced", w[0], w[1])
	}
	return cut, nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// sidesHash is the FNV-64a hash of a side assignment.
func sidesHash(sides []uint8) string {
	h := fnv.New64a()
	h.Write(sides)
	return fmt.Sprintf("%016x", h.Sum64())
}

// certifyAll certifies every result of outs, filling each op's records
// and marking an op failed on its first error or mismatch. Each instance
// is opened once; the error return is for instances that cannot be
// opened at all.
func certifyAll(outs []opOutcome) error {
	type opened struct {
		g       *graph.Graph
		release func()
	}
	cache := map[string]opened{}
	defer func() {
		for _, o := range cache {
			o.release()
		}
	}()
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			o.failure = fmt.Sprintf("op %d: %v", i, o.err)
			continue
		}
		for _, b := range o.results {
			og, ok := cache[b.inst.name]
			if !ok {
				g, release, err := b.inst.open()
				if err != nil {
					return fmt.Errorf("opening %s for certification: %w", b.inst.name, err)
				}
				og = opened{g, release}
				cache[b.inst.name] = og
			}
			cut, err := certify(og.g, b.sides, b.cut)
			if err != nil && o.failure == "" {
				o.failure = fmt.Sprintf("op %d, %s on %s: %v", i, b.alg, b.inst.name, err)
			}
			o.records = append(o.records, record{
				Instance: b.inst.name, Alg: b.alg, Seed: b.seed,
				Cut: cut, Sides: sidesHash(b.sides), planted: b.inst.planted,
			})
		}
	}
	return nil
}

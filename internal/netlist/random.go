package netlist

import (
	"fmt"

	"repro/internal/rng"
)

// RandomOptions parameterizes Random netlist generation.
type RandomOptions struct {
	// Cells is the number of cells (names "c0"…).
	Cells int
	// Nets is the number of nets (names "n0"…).
	Nets int
	// MaxPins bounds the terminals per net (uniform in [2, MaxPins]).
	MaxPins int
	// MaxArea bounds cell areas (uniform in [1, MaxArea]; default 1).
	MaxArea int
	// Locality, in [0,1), biases net pins toward nearby cell indices
	// (Rent-style locality): with probability Locality the next pin is
	// drawn from a window of ±Window around the first pin.
	Locality float64
	// Window is the locality window radius (default Cells/20 + 2).
	Window int
}

// Random generates a synthetic netlist: a standard workload for netlist
// partitioning when no proprietary benchmark decks are available. Deterministic given r.
func Random(opts RandomOptions, r *rng.Rand) (*Netlist, error) {
	if opts.Cells < 2 {
		return nil, fmt.Errorf("netlist: Random needs ≥ 2 cells, got %d", opts.Cells)
	}
	if opts.Nets < 0 {
		return nil, fmt.Errorf("netlist: negative net count %d", opts.Nets)
	}
	if opts.MaxPins < 2 {
		opts.MaxPins = 2
	}
	if opts.MaxPins > opts.Cells {
		opts.MaxPins = opts.Cells
	}
	if opts.MaxArea < 1 {
		opts.MaxArea = 1
	}
	if opts.Window <= 0 {
		opts.Window = opts.Cells/20 + 2
	}
	if opts.Locality < 0 || opts.Locality >= 1 {
		return nil, fmt.Errorf("netlist: locality %v outside [0,1)", opts.Locality)
	}
	nl := New()
	for i := 0; i < opts.Cells; i++ {
		area := 1 + r.Intn(opts.MaxArea)
		if err := nl.AddCell(fmt.Sprintf("c%d", i), int32(area)); err != nil {
			return nil, err
		}
	}
	for n := 0; n < opts.Nets; n++ {
		pins := 2 + r.Intn(opts.MaxPins-1)
		anchor := r.Intn(opts.Cells)
		seen := map[int]bool{anchor: true}
		names := []string{fmt.Sprintf("c%d", anchor)}
		for len(names) < pins {
			var cand int
			if r.Float64() < opts.Locality {
				cand = anchor - opts.Window + r.Intn(2*opts.Window+1)
				if cand < 0 {
					cand += opts.Cells
				}
				cand %= opts.Cells
			} else {
				cand = r.Intn(opts.Cells)
			}
			if seen[cand] {
				continue
			}
			seen[cand] = true
			names = append(names, fmt.Sprintf("c%d", cand))
		}
		if err := nl.AddNet(fmt.Sprintf("n%d", n), names...); err != nil {
			return nil, err
		}
	}
	return nl, nil
}

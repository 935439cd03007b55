package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestGeneratorGoldenPins pins four generated instances to fixed bytes:
// the SHA-256 of each graph's edge list (graph.WriteEdgeList) and the
// next word its stream yields after the call, so a change to a
// generator's draws or to its stream consumption fails here rather than
// only through the paper tables' cuts. The values were recorded with the
// map-based configuration model that configurationModelOracle keeps.
func TestGeneratorGoldenPins(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
		sum  string
		next uint64
		gen  func(r *rng.Rand) (*graph.Graph, error)
	}{
		{"BReg(2e5,64,3)", 5,
			"da8d9fad4061a07779778ef6247c02279280d98e60975f1dc014f716fc9f5b6a", 0x8c47e59ab8c78e32,
			func(r *rng.Rand) (*graph.Graph, error) { return BReg(200_000, 64, 3, r) }},
		{"RandomRegular(1000,5)", 3,
			"3dbe23b99b366aa573b7c4b4a75d3822762c13a301b992ff3938a1eb0de4cd82", 0x498f3f30bc7406f3,
			func(r *rng.Rand) (*graph.Graph, error) { return RandomRegular(1000, 5, r) }},
		{"TwoSet(5000,d3,16)", 3,
			"34a3a294edd9dcac1aadbe599c0d170e5ea898a7e6fac8516349a46e73f7c41f", 0xde3f1f4c165e9c16,
			func(r *rng.Rand) (*graph.Graph, error) {
				p, err := TwoSetForAvgDegree(5000, 3, 16)
				if err != nil {
					return nil, err
				}
				return TwoSet(5000, p, p, 16, r)
			}},
		{"GNP(1e5,4/99999)", 7,
			"5c0ede92ab90f4dcdd7309990c2a7c94265d6cbcc09c738a32474ace04cc77ea", 0xb0ad5cacb0ffe6ed,
			func(r *rng.Rand) (*graph.Graph, error) { return GNP(100_000, 4.0/99999, r) }},
	}
	for _, tc := range cases {
		r := rng.NewFib(tc.seed)
		g, err := tc.gen(r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		if err := graph.WriteEdgeList(h, g); err != nil {
			t.Fatal(err)
		}
		sum, next := hex.EncodeToString(h.Sum(nil)), r.Uint64()
		if sum != tc.sum || next != tc.next {
			t.Errorf("%s seed %d: edge list sha256 %s, next word %#x; want %s, %#x",
				tc.name, tc.seed, sum, next, tc.sum, tc.next)
		}
	}
}

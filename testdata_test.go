package bisect_test

// Tests over the shipped sample files in testdata/, which double as
// format documentation for users.

import (
	"os"
	"testing"

	bisect "repro"
)

func TestSampleGraphFile(t *testing.T) {
	f, err := os.Open("testdata/breg200.el")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := bisect.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 || !g.IsRegular(3) {
		t.Fatalf("sample graph: n=%d regular3=%v", g.N(), g.IsRegular(3))
	}
	// The sample was generated as BReg(200, 8, 3, seed 1989): CKL should
	// find the planted width.
	alg := bisect.Compacted{Inner: bisect.KL{}}
	b, err := bisect.BestOf{Inner: alg, Starts: 2}.Bisect(g, bisect.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Cut() > 8 {
		t.Fatalf("sample graph cut %d, planted 8", b.Cut())
	}
}

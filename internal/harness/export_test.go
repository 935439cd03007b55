package harness

import (
	"bytes"
	"strings"
	"testing"
)

func smallResult(t *testing.T) *TableResult {
	t.Helper()
	table := BRegTable(80, 3, []int{4}, 1)
	res, err := Run(table, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJSONRoundTrip(t *testing.T) {
	res := smallResult(t)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != res.ID || len(got.Rows) != len(res.Rows) {
		t.Fatalf("round trip changed result: %+v", got)
	}
	if got.Rows[0].Cells["kl"].Cut != res.Rows[0].Cells["kl"].Cut {
		t.Fatal("cell data lost")
	}
}

func TestReadJSONGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}

package service

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// docs/SERVICE.md is the authoritative API contract; these tests parse
// it and fail when the document and the implementation drift apart, in
// either direction.

func readServiceDoc(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "SERVICE.md"))
	if err != nil {
		t.Fatalf("the contract document is missing: %v", err)
	}
	return string(data)
}

func diffSets(t *testing.T, kind string, documented, implemented []string) {
	t.Helper()
	sort.Strings(documented)
	sort.Strings(implemented)
	doc := map[string]bool{}
	for _, d := range documented {
		doc[d] = true
	}
	impl := map[string]bool{}
	for _, i := range implemented {
		impl[i] = true
	}
	for _, d := range documented {
		if !impl[d] {
			t.Errorf("docs/SERVICE.md documents %s %q that the daemon does not implement", kind, d)
		}
	}
	for _, i := range implemented {
		if !doc[i] {
			t.Errorf("daemon implements %s %q that docs/SERVICE.md does not document", kind, i)
		}
	}
}

// TestDocContractEndpoints: every endpoint heading in the document
// (### `METHOD /path`) is a route, and every route is documented.
func TestDocContractEndpoints(t *testing.T) {
	doc := readServiceDoc(t)
	re := regexp.MustCompile("(?m)^### `([A-Z]+) (/[^`]*)`\\s*$")
	var documented []string
	for _, m := range re.FindAllStringSubmatch(doc, -1) {
		documented = append(documented, m[1]+" "+m[2])
	}
	if len(documented) == 0 {
		t.Fatal("no endpoint headings found in docs/SERVICE.md")
	}
	diffSets(t, "endpoint", documented, Endpoints())
}

// TestDocContractErrorCodes: the error-code table rows (| `code` | NNN |)
// equal the codes the daemon can emit.
func TestDocContractErrorCodes(t *testing.T) {
	doc := readServiceDoc(t)
	re := regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| ([0-9]{3}) \\|")
	var documented []string
	for _, m := range re.FindAllStringSubmatch(doc, -1) {
		documented = append(documented, m[1])
	}
	if len(documented) == 0 {
		t.Fatal("no error-code table rows found in docs/SERVICE.md")
	}
	diffSets(t, "error code", documented, ErrorCodes())
}

// TestDocContractAlgorithms: the job-spec table's `algorithm` row lists
// exactly the registry's names.
func TestDocContractAlgorithms(t *testing.T) {
	doc := readServiceDoc(t)
	row := regexp.MustCompile("(?m)^\\| `algorithm` \\|.*$").FindString(doc)
	if row == "" {
		t.Fatal("no `algorithm` row found in docs/SERVICE.md's job-spec table")
	}
	cells := strings.Split(row, "|")
	var documented []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cells[len(cells)-2], -1) {
		documented = append(documented, m[1])
	}
	diffSets(t, "algorithm", documented, core.Names())
}

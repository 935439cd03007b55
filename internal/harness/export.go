package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON emits the full result as indented JSON.
func (tr *TableResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// ReadJSON parses a result written by WriteJSON.
func ReadJSON(r io.Reader) (*TableResult, error) {
	var tr TableResult
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("harness: decoding result: %v", err)
	}
	return &tr, nil
}

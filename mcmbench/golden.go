package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenTable is one experiment's entry in testdata/golden.json, the
// repository's reference output for every experiment driver.
type goldenTable struct {
	ID    string     `json:"id"`
	Title string     `json:"title"`
	Note  string     `json:"note,omitempty"`
	Head  []string   `json:"headers"`
	Rows  [][]string `json:"rows"`
}

// loadGolden reads the golden snapshot under the repository root.
func loadGolden(root string) ([]goldenTable, error) {
	data, err := os.ReadFile(filepath.Join(root, "testdata", "golden.json"))
	if err != nil {
		return nil, err
	}
	var tabs []goldenTable
	if err := json.Unmarshal(data, &tabs); err != nil {
		return nil, fmt.Errorf("golden snapshot: %w", err)
	}
	return tabs, nil
}

// row returns the row whose first cell is label, or nil.
func (t *goldenTable) row(label string) []string {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == label {
			return r
		}
	}
	return nil
}

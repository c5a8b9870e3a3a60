package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ratiorules"
)

func TestParseRecord(t *testing.T) {
	row, holes, err := parseRecord("10, ?, 3.5,?")
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 4 {
		t.Fatalf("row = %v", row)
	}
	if row[0] != 10 || row[2] != 3.5 {
		t.Errorf("values = %v", row)
	}
	if !ratiorules.IsHole(row[1]) || !ratiorules.IsHole(row[3]) {
		t.Error("holes not marked")
	}
	if len(holes) != 2 || holes[0] != 1 || holes[1] != 3 {
		t.Errorf("holes = %v", holes)
	}
}

func TestParseRecordErrors(t *testing.T) {
	if _, _, err := parseRecord("1,x,3"); err == nil {
		t.Error("non-numeric field must fail")
	}
}

func TestRunMissingFlags(t *testing.T) {
	if err := run(nil, nil); err == nil {
		t.Error("missing flags must fail")
	}
}

func TestGuessEndToEnd(t *testing.T) {
	// Mine rules from a 1:2 ratio table and save them.
	rows := make([][]float64, 40)
	for i := range rows {
		v := 1 + float64(i)*0.25
		rows[i] = []float64{v, 2 * v}
	}
	rules, err := ratiorules.MineRows(rows, ratiorules.AttrNames("bread", "milk"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rules.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rules.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf strings.Builder
	if err := run([]string{"-rules", path, "-record", "4,?"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "milk") || !strings.Contains(out, "estimated") {
		t.Errorf("output missing estimate markers:\n%s", out)
	}
	if !strings.Contains(out, "8.0") {
		t.Errorf("milk estimate should be ≈ 8:\n%s", out)
	}
}

func TestGuessBadInputs(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-rules", "/nonexistent.json", "-record", "1,?"}, &buf); err == nil {
		t.Error("missing rules file must fail")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-rules", path, "-record", "1,?"}, &buf); err == nil {
		t.Error("corrupt rules file must fail")
	}
}

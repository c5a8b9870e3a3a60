//go:build amd64 && !amd64.v3

// The transcript holds printed floating-point results, which only
// baseline amd64 reproduces to the last digit: elsewhere the compiler
// may fuse x*y + z into one FMA instruction (see the eigen package's
// golden test), so this pin carries the same build constraint.

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTranscriptMatchesOutput runs every experiment of `-experiment
// all` except fig8, whose section records wall-clock timings, and
// compares its output with its section of docs/rrbench-all.txt.
func TestTranscriptMatchesOutput(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "rrbench-all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if header, ok := strings.CutPrefix(line, "==================== "); ok {
			name = strings.TrimSuffix(header, " ====================\n")
			continue
		}
		sections[name] += line
	}
	for _, name := range experimentNames {
		if name == "fig8" {
			continue
		}
		var out strings.Builder
		if err := run([]string{"-experiment", name}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := sections[name]; out.String() != want {
			t.Errorf("%s: output differs from docs/rrbench-all.txt\n--- program ---\n%s--- transcript ---\n%s",
				name, out.String(), want)
		}
	}
}

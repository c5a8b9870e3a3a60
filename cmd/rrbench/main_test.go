package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("100, 200,300")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{100, 200, 300}) {
		t.Errorf("parseSizes = %v", got)
	}
	if got, err := parseSizes(""); err != nil || got != nil {
		t.Errorf("empty = %v, %v", got, err)
	}
	if _, err := parseSizes("1,x"); err == nil {
		t.Error("bad size must fail")
	}
}

// TestExperimentNamesMatchTranscript pins the `-experiment all` list
// against the section headers of its committed transcript, in order.
func TestExperimentNamesMatchTranscript(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "rrbench-all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "==================== "); ok {
			sections = append(sections, strings.TrimSuffix(name, " ===================="))
		}
	}
	if !reflect.DeepEqual(experimentNames, sections) {
		t.Errorf("experimentNames = %v\ntranscript sections = %v", experimentNames, sections)
	}
}

func TestRunTable2(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Errorf("output missing table:\n%s", buf.String())
	}
}

func TestRunFig12(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "fig12"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "quantitative") {
		t.Errorf("output missing comparison:\n%s", buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "nope"}, &buf); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestRunFig6BadDataset(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "fig6", "-dataset", "nope"}, &buf); err == nil {
		t.Error("unknown dataset must fail")
	}
}

func TestDatDir(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-experiment", "table2", "-datdir", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nba.d2", "nba2.d2", "baseball.d2", "abalone.d2", "ge_nba.dat", "scaleup.dat"} {
		data, err := os.ReadFile(filepath.Join(dir, want))
		if err != nil {
			t.Fatalf("%s not written: %v", want, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", want)
		}
		// Every line must be whitespace-separated numbers.
		for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			for _, field := range strings.Fields(line) {
				if _, err := strconv.ParseFloat(field, 64); err != nil {
					t.Fatalf("%s line %d field %q not numeric", want, i+1, field)
				}
			}
		}
	}
}

func TestRunRemainingExperiments(t *testing.T) {
	// Exercise every CLI route end to end (fig7/fig6/fig8 are the slow
	// ones; fig8 gets a tiny sweep).
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "fig9"}, "baseball"},
		{[]string{"-experiment", "fig11"}, "Jordan"},
		{[]string{"-experiment", "sec63"}, "butter"},
		{[]string{"-experiment", "robust"}, "robust mining"},
		{[]string{"-experiment", "learncurve", "-dataset", "abalone"}, "Learning curve"},
		{[]string{"-experiment", "cutoff", "-dataset", "abalone"}, "Eq. 1 cutoff"},
		{[]string{"-experiment", "fig8", "-sizes", "500,1000"}, "Figure 8"},
		{[]string{"-experiment", "fig7"}, "Figure 7"},
		{[]string{"-experiment", "fig6", "-dataset", "nba"}, "Figure 6"},
	} {
		var buf strings.Builder
		if err := run(tc.args, &buf); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%v: output missing %q", tc.args, tc.want)
		}
	}
}

func TestRunBadSizes(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "fig8", "-sizes", "x"}, &buf); err == nil {
		t.Error("bad sizes must fail")
	}
}

func TestRunJSONSummary(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-experiment", "sec63", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "butter") {
		t.Errorf("-json still printed the human table:\n%s", out)
	}
	var sum benchSummary
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if len(sum.Experiments) != 1 || sum.Experiments[0].Name != "sec63" {
		t.Fatalf("experiments = %+v", sum.Experiments)
	}
	if sum.Experiments[0].Seconds <= 0 || sum.TotalSeconds <= 0 {
		t.Errorf("timings not positive: %+v", sum)
	}
	// sec63 mines the basket data and reconstructs records, so the
	// instrumented phases, throughput and fill ops must have moved.
	for _, phase := range []string{"scan", "covariance", "eigensolve"} {
		if sum.Miner.Phases[phase].Count < 1 {
			t.Errorf("phase %q count = %v, want >= 1 (phases %+v)",
				phase, sum.Miner.Phases[phase].Count, sum.Miner.Phases)
		}
	}
	if sum.Miner.RowsScanned < 1 || sum.Miner.CellsScanned < sum.Miner.RowsScanned {
		t.Errorf("throughput totals wrong: %+v", sum.Miner)
	}
	if sum.Miner.Mines["ok"] < 1 {
		t.Errorf("mines = %v", sum.Miner.Mines)
	}
	if sum.Miner.Ops["fill_ok"] < 1 {
		t.Errorf("ops = %v", sum.Miner.Ops)
	}
}

// TestRunOutFile checks -out: the tables stay on stdout while the same
// JSON summary lands in the file.
func TestRunOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf strings.Builder
	args := []string{"-experiment", "table2", "-out", path}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote summary to") {
		t.Errorf("stdout missing the -out note:\n%s", buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum benchSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("-out file is not valid JSON: %v\n%s", err, data)
	}
	if len(sum.Experiments) != 1 || sum.Experiments[0].Name != "table2" {
		t.Fatalf("experiments = %+v", sum.Experiments)
	}
}

package textplot

import (
	"strings"
	"testing"
)

func TestScatterBasics(t *testing.T) {
	out := Scatter("title", "x", "y", []Point{
		{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 0.5, Y: 0.5, Label: "Jordan"},
	}, 20, 10)
	for _, want := range []string{"title", "x: x in [0, 1]", "y: y in [0, 1]", "J=Jordan"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Grid line count: height rows between the header and the axis line.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	gridRows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "|") && strings.HasSuffix(l, "|") {
			gridRows++
		}
	}
	if gridRows != 10 {
		t.Errorf("grid rows = %d, want 10", gridRows)
	}
}

// TestScatterExtremesOnEdgeRows: the points that set the range sit on
// the grid's edge rows. With these bounds, 21·(max−min)/(max−min)
// rounds to 20.999999999999996, which put the maximum one row low when
// the plot multiplied before dividing.
func TestScatterExtremesOnEdgeRows(t *testing.T) {
	out := Scatter("t", "x", "y", []Point{
		{X: 0, Y: -1399.2979398336965, Label: "Low"},
		{X: 1, Y: 2086.1709966123462, Label: "High"},
	}, 70, 22)
	var grid []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "|") {
			grid = append(grid, l)
		}
	}
	if len(grid) != 22 || !strings.Contains(grid[0], "H") || !strings.Contains(grid[21], "L") {
		t.Errorf("extremes not on the edge rows:\n%s", out)
	}
}

func TestScatterEmpty(t *testing.T) {
	out := Scatter("t", "x", "y", nil, 20, 10)
	if !strings.Contains(out, "no points") {
		t.Errorf("empty scatter output: %q", out)
	}
}

func TestScatterDegenerateRange(t *testing.T) {
	// All points identical: must not divide by zero.
	out := Scatter("t", "x", "y", []Point{{X: 2, Y: 3}, {X: 2, Y: 3}}, 20, 5)
	if !strings.Contains(out, "o") && !strings.Contains(out, "·") {
		t.Errorf("degenerate scatter lost its points:\n%s", out)
	}
}

func TestScatterDensityMarks(t *testing.T) {
	pts := make([]Point, 8)
	for i := range pts {
		pts[i] = Point{X: 0, Y: 0}
	}
	pts = append(pts, Point{X: 1, Y: 1})
	out := Scatter("t", "x", "y", pts, 10, 5)
	if !strings.Contains(out, "●") {
		t.Errorf("dense cluster should render ●:\n%s", out)
	}
}

func TestScatterMinimumSize(t *testing.T) {
	out := Scatter("t", "x", "y", []Point{{X: 0, Y: 0}, {X: 1, Y: 2}}, 1, 1)
	if len(out) == 0 {
		t.Error("tiny dimensions must be clamped, not crash")
	}
}

func TestLines(t *testing.T) {
	out := Lines("fig", "h", "GE", []Series{
		{Name: "col-avgs", X: []float64{1, 2, 3}, Y: []float64{5, 5, 5}, Marker: 'c'},
		{Name: "RR", X: []float64{1, 2, 3}, Y: []float64{1, 1.1, 1.2}, Marker: 'r'},
	}, 30, 10)
	for _, want := range []string{"series c: col-avgs", "series r: RR", "fig"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram("RR1", []string{"minutes", "points"}, []float64{0.8, -0.4}, 20)
	if !strings.Contains(out, "minutes") || !strings.Contains(out, "points") {
		t.Errorf("histogram missing names:\n%s", out)
	}
	if !strings.Contains(out, "█") {
		t.Errorf("histogram missing bars:\n%s", out)
	}
	if !strings.Contains(out, "-█") {
		t.Errorf("negative value must carry a sign marker:\n%s", out)
	}
}

func TestHistogramAllZero(t *testing.T) {
	out := Histogram("z", []string{"a"}, []float64{0}, 20)
	if !strings.Contains(out, "a") {
		t.Errorf("zero histogram broken:\n%s", out)
	}
}

func TestHeatmap(t *testing.T) {
	out := Heatmap("corr", []string{"a", "b"}, [][]float64{
		{1, -1},
		{-1, 1},
	})
	for _, want := range []string{"corr", "a", "b", "@", "#", "scale:"} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap missing %q:\n%s", want, out)
		}
	}
}

func TestHeatmapEmpty(t *testing.T) {
	if !strings.Contains(Heatmap("t", nil, nil), "empty") {
		t.Error("empty heatmap broken")
	}
}

func TestShadeOf(t *testing.T) {
	if shadeOf(1) != '@' || shadeOf(-1) != '#' {
		t.Errorf("extremes: %c %c", shadeOf(1), shadeOf(-1))
	}
	if shadeOf(2) != '@' || shadeOf(-2) != '#' {
		t.Error("clamping broken")
	}
	if shadeOf(nan()) != '?' {
		t.Error("NaN shade broken")
	}
	// Monotone: shades must progress with value.
	prev := -1
	for v := -1.0; v <= 1.0; v += 0.1 {
		idx := -1
		for i, r := range heatShades {
			if shadeOf(v) == r {
				idx = i
			}
		}
		if idx < prev {
			t.Fatalf("shade index not monotone at %v", v)
		}
		prev = idx
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

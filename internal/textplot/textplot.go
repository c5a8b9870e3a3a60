// Package textplot renders small ASCII scatter and line plots so the
// experiment binaries can show the paper's figures directly in a terminal
// (and EXPERIMENTS.md can embed them as text).
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Point is a 2-d data point with an optional label; labeled points are
// drawn with the first letter of their label (the experiments use this to
// mark Jordan, Rodman, etc. in the Fig. 11 reproduction).
type Point struct {
	X, Y  float64
	Label string
}

// Scatter renders points on a width×height character grid with axis
// annotations. Unlabeled points render as '·', overlapping clusters as
// '●', labeled points as their label's first rune (labels win over
// density).
func Scatter(title, xLabel, yLabel string, points []Point, width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 5 {
		height = 5
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(points) == 0 {
		b.WriteString("(no points)\n")
		return b.String()
	}
	minX, maxX := points[0].X, points[0].X
	minY, maxY := points[0].Y, points[0].Y
	for _, p := range points[1:] {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	density := make([][]int, height)
	for r := range density {
		density[r] = make([]int, width)
	}
	place := func(p Point) (row, col int) {
		col = int(float64(width-1) * ((p.X - minX) / (maxX - minX)))
		row = height - 1 - int(float64(height-1)*((p.Y-minY)/(maxY-minY)))
		return row, col
	}
	// Density first, then labels on top.
	for _, p := range points {
		if p.Label != "" {
			continue
		}
		r, c := place(p)
		density[r][c]++
	}
	for r := 0; r < height; r++ {
		for c := 0; c < width; c++ {
			switch {
			case density[r][c] >= 4:
				grid[r][c] = '●'
			case density[r][c] >= 2:
				grid[r][c] = 'o'
			case density[r][c] == 1:
				grid[r][c] = '·'
			}
		}
	}
	for _, p := range points {
		if p.Label == "" {
			continue
		}
		r, c := place(p)
		grid[r][c] = []rune(p.Label)[0]
	}
	for r := 0; r < height; r++ {
		fmt.Fprintf(&b, "|%s|\n", string(grid[r]))
	}
	fmt.Fprintf(&b, "x: %s in [%.4g, %.4g]   y: %s in [%.4g, %.4g]\n",
		xLabel, minX, maxX, yLabel, minY, maxY)
	var legend []string
	for _, p := range points {
		if p.Label != "" {
			legend = append(legend, fmt.Sprintf("%c=%s(%.4g,%.4g)", p.Label[0], p.Label, p.X, p.Y))
		}
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "labels: %s\n", strings.Join(legend, " "))
	}
	return b.String()
}

// Series is one named line on a Lines plot.
type Series struct {
	Name   string
	X, Y   []float64
	Marker rune
}

// Lines renders one or more series as marker clouds over a character grid
// with a shared scale — sufficient to eyeball the guessing-error curves of
// Fig. 6 and the scale-up line of Fig. 8 in a terminal.
func Lines(title, xLabel, yLabel string, series []Series, width, height int) string {
	var pts []Point
	for _, s := range series {
		for i := range s.X {
			pts = append(pts, Point{X: s.X[i], Y: s.Y[i], Label: string(s.Marker)})
		}
	}
	var b strings.Builder
	b.WriteString(Scatter(title, xLabel, yLabel, pts, width, height))
	for _, s := range series {
		fmt.Fprintf(&b, "series %c: %s\n", s.Marker, s.Name)
	}
	return b.String()
}

// heatShades maps [-1, 1] onto glyphs: deep negative correlation through
// zero to deep positive.
var heatShades = []rune("#=-. +o*@")

// Heatmap renders a square matrix of values in [-1, 1] (e.g. a
// correlation matrix) as a character grid: '@' for strong positive, '#'
// for strong negative, space near zero. Labels are truncated to fit.
func Heatmap(title string, labels []string, values [][]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	n := len(values)
	if n == 0 {
		b.WriteString("(empty)\n")
		return b.String()
	}
	const labelWidth = 14
	short := func(i int) string {
		s := fmt.Sprintf("%d", i)
		if i < len(labels) {
			s = labels[i]
		}
		if len(s) > labelWidth {
			s = s[:labelWidth]
		}
		return s
	}
	for i, row := range values {
		fmt.Fprintf(&b, "%-*s ", labelWidth, short(i))
		for _, v := range row {
			b.WriteRune(shadeOf(v))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	b.WriteString("scale: # strong-negative, - weak-negative, (space) ≈0, o weak-positive, @ strong-positive\n")
	return b.String()
}

// shadeOf maps a correlation in [-1, 1] to its glyph, clamping outside.
func shadeOf(v float64) rune {
	if math.IsNaN(v) {
		return '?'
	}
	if v < -1 {
		v = -1
	}
	if v > 1 {
		v = 1
	}
	idx := int((v + 1) / 2 * float64(len(heatShades)-1))
	return heatShades[idx]
}

// Histogram renders name/value bars, used for the Fig. 7 relative
// guessing-error chart and for displaying rule coefficients (the paper's
// Fig. 10 step 3 "display Ratio Rules graphically in a histogram").
func Histogram(title string, names []string, values []float64, width int) string {
	if width < 10 {
		width = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	var maxAbs float64
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	nameWidth := 0
	for _, n := range names {
		if len(n) > nameWidth {
			nameWidth = len(n)
		}
	}
	for i, v := range values {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		bars := int(math.Round(math.Abs(v) / maxAbs * float64(width)))
		mark := strings.Repeat("█", bars)
		sign := " "
		if v < 0 {
			sign = "-"
		}
		fmt.Fprintf(&b, "%-*s %s%-*s %10.4g\n", nameWidth, name, sign, width, mark, v)
	}
	return b.String()
}

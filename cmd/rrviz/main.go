// Command rrviz projects a dataset onto two Ratio Rules and renders the
// scatter plot in the terminal — the paper's "visualization for free"
// (Sec. 6.1, Figs. 9 and 11).
//
// Usage:
//
//	rrviz -dataset nba -x 1 -y 2      # built-in synthetic dataset
//	rrviz -in sales.csv -x 1 -y 2    # any CSV matrix
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"ratiorules"
	"ratiorules/internal/dataset"
	"ratiorules/internal/experiments"
	"ratiorules/internal/stats"
	"ratiorules/internal/textplot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rrviz:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rrviz", flag.ContinueOnError)
	var (
		name = fs.String("dataset", "", "built-in dataset: nba, baseball or abalone")
		in   = fs.String("in", "", "CSV file to visualize instead of a built-in dataset")
		x    = fs.Int("x", 1, "1-based rule index of the x axis")
		y    = fs.Int("y", 2, "1-based rule index of the y axis")
		mode = fs.String("mode", "scatter", "scatter (RR-space projection) or corr (correlation heatmap)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *name != "" && *in != "":
		return fmt.Errorf("use either -dataset or -in, not both")
	case *name != "" && *mode == "corr":
		ds, err := experiments.DatasetByName(*name)
		if err != nil {
			return err
		}
		return vizCorr(w, ds)
	case *name != "":
		res, err := experiments.RunScatter(*name, *x, *y)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		return nil
	case *in != "" && *mode == "corr":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err := dataset.ReadCSV(*in, f)
		if err != nil {
			return err
		}
		return vizCorr(w, ds)
	case *in != "":
		return vizCSV(w, *in, *x, *y)
	default:
		fs.Usage()
		return fmt.Errorf("missing -dataset or -in")
	}
}

// vizCorr renders the attribute correlation matrix as a heatmap, a quick
// way to see which attribute pairs a Ratio Rule will bind together.
func vizCorr(w io.Writer, ds *dataset.Dataset) error {
	n, m := ds.X.Dims()
	if n < 2 {
		return fmt.Errorf("need at least 2 rows for correlations, have %d", n)
	}
	scatter, _ := stats.ScatterTwoPass(ds.X)
	corr := make([][]float64, m)
	for i := 0; i < m; i++ {
		corr[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			d := scatter.At(i, i) * scatter.At(j, j)
			if d <= 0 {
				continue
			}
			corr[i][j] = scatter.At(i, j) / math.Sqrt(d)
		}
	}
	fmt.Fprint(w, textplot.Heatmap(
		fmt.Sprintf("attribute correlations of '%s' (%d rows)", ds.Name, n),
		ds.Attrs, corr))
	return nil
}

func vizCSV(w io.Writer, path string, x, y int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := dataset.ReadCSV(path, f)
	if err != nil {
		return err
	}
	need := x
	if y > need {
		need = y
	}
	rules, err := ratiorules.Mine(ds.X, ratiorules.FixedK(need), ratiorules.AttrNames(ds.Attrs...))
	if err != nil {
		return err
	}
	proj, err := rules.Project(ds.X, need)
	if err != nil {
		return err
	}
	pts := make([]textplot.Point, proj.Rows())
	for i := range pts {
		pts[i] = textplot.Point{X: proj.At(i, x-1), Y: proj.At(i, y-1)}
	}
	fmt.Fprint(w, textplot.Scatter(
		fmt.Sprintf("'%s': %d points in RR space", path, len(pts)),
		fmt.Sprintf("RR%d", x), fmt.Sprintf("RR%d", y), pts, 70, 22))
	return nil
}

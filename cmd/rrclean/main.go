// Command rrclean repairs a CSV data matrix: cells written as "?" are
// treated as lost and reconstructed with Ratio Rules mined from the
// complete rows (optionally with robust trimming so corrupted records do
// not distort the rules). The repaired CSV is written to stdout or -out.
//
// Usage:
//
//	rrclean -in damaged.csv -out repaired.csv [-robust] [-energy 0.85]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"ratiorules"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rrclean:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rrclean", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "damaged CSV (header + rows, \"?\" for lost cells); required")
		out    = fs.String("out", "", "output path (default: stdout)")
		robust = fs.Bool("robust", false, "trim row outliers before fitting the rules")
		em     = fs.Bool("em", false, "mine from ALL rows via iterative fill/re-mine (EM) instead of complete rows only")
		energy = fs.Float64("energy", ratiorules.DefaultEnergy, "Eq. 1 variance cutoff in (0, 1]; 0 selects the default")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}

	header, rows, holes, err := readDamaged(*in)
	if err != nil {
		return err
	}
	var rules *ratiorules.Rules
	if *em {
		rules, err = mineEM(header, rows, *energy)
	} else {
		rules, err = mineComplete(header, rows, holes, *robust, *energy)
	}
	if err != nil {
		return err
	}
	repaired, estimates := 0, 0
	for i, rowHoles := range holes {
		if len(rowHoles) == 0 {
			continue
		}
		fixed, err := rules.FillRow(rows[i], rowHoles)
		if err != nil {
			return fmt.Errorf("repairing row %d: %w", i+2, err) // +2: header + 1-based
		}
		rows[i] = fixed
		repaired++
		estimates += len(rowHoles)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeCSV(w, header, rows); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rrclean: repaired %d rows (%d cells) with k=%d rules\n",
		repaired, estimates, rules.K())
	return nil
}

// readDamaged parses the CSV, mapping "?" to the hole marker.
func readDamaged(path string) (header []string, rows [][]float64, holes [][]int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	header, err = cr.Read()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reading header: %w", err)
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, nil, nil, fmt.Errorf("line %d: %d fields, want %d", line, len(rec), len(header))
		}
		row := make([]float64, len(rec))
		var rowHoles []int
		for j, s := range rec {
			if s == "?" {
				row[j] = ratiorules.Hole
				rowHoles = append(rowHoles, j)
				continue
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("line %d column %d: %w", line, j+1, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
		holes = append(holes, rowHoles)
	}
	return header, rows, holes, nil
}

// mineEM fits rules on every row, holes included, via MineWithHoles.
func mineEM(header []string, rows [][]float64, energy float64) (*ratiorules.Rules, error) {
	x, err := ratiorules.MatrixFromRows(rows)
	if err != nil {
		return nil, err
	}
	miner, err := ratiorules.CoreMiner(ratiorules.AttrNames(header...), ratiorules.Energy(energy))
	if err != nil {
		return nil, err
	}
	res, err := miner.MineWithHoles(x, ratiorules.EMConfig{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "rrclean: EM mining converged=%v after %d rounds over all %d rows\n",
		res.Converged, res.Rounds, len(rows))
	return res.Rules, nil
}

// mineComplete fits rules on the rows without holes.
func mineComplete(header []string, rows [][]float64, holes [][]int, robust bool, energy float64) (*ratiorules.Rules, error) {
	var complete [][]float64
	for i, rowHoles := range holes {
		if len(rowHoles) == 0 {
			complete = append(complete, rows[i])
		}
	}
	if len(complete) < 2 {
		return nil, fmt.Errorf("only %d complete rows; need at least 2 to mine rules", len(complete))
	}
	x, err := ratiorules.MatrixFromRows(complete)
	if err != nil {
		return nil, err
	}
	miner, err := ratiorules.CoreMiner(ratiorules.AttrNames(header...), ratiorules.Energy(energy))
	if err != nil {
		return nil, err
	}
	if robust {
		res, err := miner.MineRobust(x, ratiorules.RobustConfig{})
		if err != nil {
			return nil, err
		}
		if len(res.TrimmedRows) > 0 {
			fmt.Fprintf(os.Stderr, "rrclean: robust fit trimmed %d suspicious rows\n", len(res.TrimmedRows))
		}
		return res.Rules, nil
	}
	return miner.MineMatrix(x)
}

func writeCSV(w io.Writer, header []string, rows [][]float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, row := range rows {
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

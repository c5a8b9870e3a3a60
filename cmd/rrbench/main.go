// Command rrbench regenerates the tables and figures of the paper's
// evaluation (Korn et al., VLDB 1998) on the synthetic dataset stand-ins.
//
// Usage:
//
//	rrbench -experiment all
//	rrbench -experiment fig6 -dataset baseball
//	rrbench -experiment fig8 -sizes 10000,50000,100000
//	rrbench -experiment table2 | fig7 | fig9 | fig11 | fig12 | cutoff
//	rrbench -experiment fig8 -json > fig8.json
//	rrbench -experiment all -out bench.json
//
// With -json the human-readable tables are suppressed and a single
// machine-readable summary is printed instead: per-experiment wall
// times plus the miner's phase timings, throughput and op counters
// snapshot from the obs registry. -out writes the same summary to a
// file while keeping the tables on stdout, so one run produces both.
//
// The service's own benchmark (HTTP ingest, fill and republish) is
// perfbench, not this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ratiorules/internal/experiments"
	"ratiorules/internal/obs"
)

// experimentNames lists the paper's experiments in the order
// `-experiment all` runs them. docs/rrbench-all.txt is the transcript
// of that run, one "====" section per name.
var experimentNames = []string{
	"table2", "fig7", "fig6", "fig11", "fig9", "fig12", "sec63",
	"cutoff", "robust", "bands", "learncurve", "fig8",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rrbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rrbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", strings.Join(experimentNames, ", ")+" or all")
		ds         = fs.String("dataset", "nba", "dataset for fig6/cutoff: nba, baseball or abalone")
		sizes      = fs.String("sizes", "", "comma-separated row counts for fig8 (default: the paper's sweep)")
		datDir     = fs.String("datdir", "", "also write the paper's gnuplot data files (nba.d2, scaleup.dat, ...) into this directory")
		jsonOut    = fs.Bool("json", false, "suppress tables and print a machine-readable timing/throughput summary")
		outFile    = fs.String("out", "", "also write the JSON summary to this file (tables stay on stdout)")
		verbose    = fs.Bool("v", false, "debug logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obs.Setup(*verbose)

	// In -json mode the tables are discarded so stdout is pure JSON.
	jsonDst := w
	if *jsonOut {
		w = io.Discard
	}
	var timings []benchExperiment

	runOne := func(name string) error {
		switch name {
		case "fig6":
			res, err := experiments.RunFig6(*ds)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "fig7":
			res, err := experiments.RunFig7()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "fig8":
			ns, err := parseSizes(*sizes)
			if err != nil {
				return err
			}
			res, err := experiments.RunFig8(ns)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "fig9":
			for _, name := range []string{"baseball", "abalone"} {
				res, err := experiments.RunScatter(name, 1, 2)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, res)
			}
		case "fig11":
			for _, axes := range [][2]int{{1, 2}, {2, 3}} {
				res, err := experiments.RunScatter("nba", axes[0], axes[1])
				if err != nil {
					return err
				}
				fmt.Fprintln(w, res)
			}
		case "fig12":
			res, err := experiments.RunFig12()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "sec63":
			res, err := experiments.RunSec63()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "table2":
			res, err := experiments.RunTable2()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "learncurve":
			res, err := experiments.RunLearnCurve(*ds)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "bands":
			res, err := experiments.RunBands(*ds)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "robust":
			res, err := experiments.RunRobust(0)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "cutoff":
			res, err := experiments.RunCutoff(*ds)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *datDir != "" {
		files, err := experiments.WriteAllDat(*datDir, *experiment == "all")
		if err != nil {
			return fmt.Errorf("writing dat files: %w", err)
		}
		fmt.Fprintf(w, "wrote %d data files to %s: %v\n", len(files), *datDir, files)
	}

	timedRun := func(name string) error {
		start := time.Now()
		err := runOne(name)
		timings = append(timings, benchExperiment{Name: name, Seconds: time.Since(start).Seconds()})
		return err
	}

	if *experiment == "all" {
		for _, name := range experimentNames {
			fmt.Fprintf(w, "==================== %s ====================\n", name)
			if err := timedRun(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	} else if err := timedRun(*experiment); err != nil {
		return err
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return fmt.Errorf("creating -out file: %w", err)
		}
		if err := writeJSONSummary(f, timings); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", *outFile, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote summary to %s\n", *outFile)
	}
	if *jsonOut {
		return writeJSONSummary(jsonDst, timings)
	}
	return nil
}

// benchExperiment is one experiment's wall-clock cost.
type benchExperiment struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// phaseStat aggregates one histogram: observation count and total
// seconds.
type phaseStat struct {
	Count   float64 `json:"count"`
	Seconds float64 `json:"seconds"`
}

// benchSummary is the -json document. Miner figures come from the obs
// registry the instrumented core records into, so they cover exactly
// the mining work this process did.
type benchSummary struct {
	Experiments  []benchExperiment `json:"experiments"`
	TotalSeconds float64           `json:"total_seconds"`
	Miner        minerSummary      `json:"miner"`
}

type minerSummary struct {
	Phases         map[string]phaseStat `json:"phases"`
	ShardScans     phaseStat            `json:"shard_scans"`
	RowsScanned    float64              `json:"rows_scanned"`
	CellsScanned   float64              `json:"cells_scanned"`
	RowsPerSecond  float64              `json:"rows_per_second"`
	CellsPerSecond float64              `json:"cells_per_second"`
	Mines          map[string]float64   `json:"mines"`
	Ops            map[string]float64   `json:"ops"`
}

// writeJSONSummary snapshots the obs registry into the -json document.
func writeJSONSummary(w io.Writer, timings []benchExperiment) error {
	sum := benchSummary{
		Experiments: timings,
		Miner: minerSummary{
			Phases: make(map[string]phaseStat),
			Mines:  make(map[string]float64),
			Ops:    make(map[string]float64),
		},
	}
	for _, e := range timings {
		sum.TotalSeconds += e.Seconds
	}
	for _, s := range obs.Default().Gather() {
		switch s.Name {
		case "rr_miner_phase_seconds_sum":
			p := sum.Miner.Phases[s.Labels["phase"]]
			p.Seconds = s.Value
			sum.Miner.Phases[s.Labels["phase"]] = p
		case "rr_miner_phase_seconds_count":
			p := sum.Miner.Phases[s.Labels["phase"]]
			p.Count = s.Value
			sum.Miner.Phases[s.Labels["phase"]] = p
		case "rr_miner_shard_seconds_sum":
			sum.Miner.ShardScans.Seconds = s.Value
		case "rr_miner_shard_seconds_count":
			sum.Miner.ShardScans.Count = s.Value
		case "rr_miner_rows_total":
			sum.Miner.RowsScanned = s.Value
		case "rr_miner_cells_total":
			sum.Miner.CellsScanned = s.Value
		case "rr_miner_rows_per_second":
			sum.Miner.RowsPerSecond = s.Value
		case "rr_miner_cells_per_second":
			sum.Miner.CellsPerSecond = s.Value
		case "rr_miner_mines_total":
			sum.Miner.Mines[s.Labels["result"]] = s.Value
		case "rr_ops_total":
			sum.Miner.Ops[s.Labels["op"]+"_"+s.Labels["result"]] = s.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", p, err)
		}
		out = append(out, n)
	}
	return out, nil
}

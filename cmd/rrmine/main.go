// Command rrmine mines Ratio Rules from a CSV data matrix (header row of
// attribute names, numeric rows) in a single pass and prints the rule
// table; optionally it saves the rules as JSON for later use with
// rrguess, or mines straight into a durable model store that rrserve
// -data-dir serves (offline mining, online serving).
//
// Usage:
//
//	rrmine -in sales.csv [-energy 0.85 | -k 3] [-out rules.json]
//	       [-store ./models [-name sales]] [-v]
//
// -store journals the mined model into the store directory as a new
// version (creating the store if needed); -name defaults to the input
// file's base name without extension. -v enables debug logging
// (RR_LOG_LEVEL/RR_LOG_FORMAT are honored, see internal/obs); timings
// and throughput are logged to stderr so stdout stays parseable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ratiorules"
	"ratiorules/internal/dataset"
	"ratiorules/internal/obs"
	"ratiorules/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rrmine:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rrmine", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "input CSV file (header + numeric rows); required")
		out      = fs.String("out", "", "optional path to save the mined rules as JSON")
		storeDir = fs.String("store", "", "optional model store directory to mine into (see rrserve -data-dir)")
		name     = fs.String("name", "", "model name in the store (default: input file base name)")
		energy   = fs.Float64("energy", ratiorules.DefaultEnergy, "Eq. 1 variance-coverage cutoff in (0, 1]")
		k        = fs.Int("k", -1, "retain exactly k rules instead of the energy cutoff")
		verbose  = fs.Bool("v", false, "debug logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := obs.Setup(*verbose)
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := dataset.NewCSVSource(f)
	if err != nil {
		return err
	}

	opts := []ratiorules.Opt{ratiorules.AttrNames(src.Header()...)}
	if *k >= 0 {
		opts = append(opts, ratiorules.FixedK(*k))
	} else {
		// The raw option rejects a cutoff outside (0, 1]; Energy(0)
		// would silently select the default.
		opts = append(opts, ratiorules.MinerOpts(ratiorules.WithEnergy(*energy)))
	}
	start := time.Now()
	rules, err := ratiorules.MineStream(src, opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	logger.Info("mined",
		"in", *in,
		"rows", rules.TrainedRows(),
		"attrs", rules.M(),
		"k", rules.K(),
		"seconds", elapsed.Seconds(),
		"rows_per_second", obs.Rate(rules.TrainedRows(), elapsed),
	)
	fmt.Print(rules)
	fmt.Println("\ninterpretation (Fig. 10 methodology):")
	for _, reading := range rules.Interpret(0) {
		fmt.Println(" ", reading)
	}

	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		if err := rules.Save(of); err != nil {
			return err
		}
		fmt.Printf("\nrules saved to %s\n", *out)
	}

	if *storeDir != "" {
		modelName := *name
		if modelName == "" {
			base := filepath.Base(*in)
			modelName = strings.TrimSuffix(base, filepath.Ext(base))
		}
		st, err := store.Open(*storeDir, store.WithLogger(logger))
		if err != nil {
			return err
		}
		version, err := st.PutContext(context.Background(), modelName, rules)
		if err != nil {
			st.Close()
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		fmt.Printf("\nmodel %q v%d stored in %s\n", modelName, version, *storeDir)
	}
	return nil
}

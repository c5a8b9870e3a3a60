// Command rrbench regenerates the tables and figures of the paper's
// evaluation (Korn et al., VLDB 1998) on the synthetic dataset stand-ins.
//
// Usage:
//
//	rrbench -experiment all
//	rrbench -experiment fig6 -dataset baseball
//	rrbench -experiment fig8 -sizes 10000,50000,100000
//	rrbench -experiment table2 | fig7 | fig9 | fig11 | fig12 | cutoff
//	rrbench -experiment fig8 -json > BENCH_fig8.json
//	rrbench -experiment all -out BENCH_PR4.json
//
// With -json the human-readable tables are suppressed and a single
// machine-readable summary is printed instead: per-experiment wall
// times plus the miner's phase timings, throughput and op counters
// snapshot from the obs registry — the input for BENCH_*.json
// trajectory tracking. -out writes the same summary to a file while
// keeping the tables on stdout, so one run produces both.
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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rrbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rrbench", flag.ContinueOnError)
	var (
		experiment    = fs.String("experiment", "all", "fig6, fig7, fig8, fig9, fig11, fig12, sec63, table2, cutoff, robust, bands, learncurve, online, drift, cluster, replica, profile, admission or all")
		onlineRows    = fs.Int("online-rows", 100000, "rows for the online ingest experiment")
		onlineWidth   = fs.Int("online-width", 32, "columns for the online ingest experiment")
		profileRows   = fs.Int("profile-rows", 400000, "rows per pass for the profiling-overhead experiment")
		profileWidth  = fs.Int("profile-width", 32, "columns for the profiling-overhead experiment")
		driftRows     = fs.Int("drift-rows", 20000, "row budget for the drift detection experiment")
		driftWidth    = fs.Int("drift-width", 16, "columns for the drift detection experiment")
		clusterRows   = fs.Int("cluster-rows", 200000, "rows for the cluster experiment")
		clusterWidth  = fs.Int("cluster-width", 32, "columns for the cluster experiment")
		clusterNodes  = fs.Int("cluster-nodes", 4, "in-process worker nodes for the cluster experiment")
		replicaEvents = fs.Int("replica-events", 2000, "committed models for the replica experiment")
		replicaWidth  = fs.Int("replica-width", 32, "columns per model for the replica experiment")
		admRequests   = fs.Int("admission-requests", 2000, "sequential probe requests per admission experiment phase")
		admFlood      = fs.Int("admission-flood", 12, "concurrent flooding goroutines for the admission experiment")
		ds            = fs.String("dataset", "nba", "dataset for fig6/cutoff: nba, baseball or abalone")
		sizes         = fs.String("sizes", "", "comma-separated row counts for fig8 (default: the paper's sweep)")
		datDir        = fs.String("datdir", "", "also write the paper's gnuplot data files (nba.d2, scaleup.dat, ...) into this directory")
		jsonOut       = fs.Bool("json", false, "suppress tables and print a machine-readable timing/throughput summary")
		outFile       = fs.String("out", "", "also write the JSON summary to this file (tables stay on stdout)")
		verbose       = fs.Bool("v", false, "debug logging")
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
	var driftRes *experiments.DriftResult
	var clusterRes *experiments.ClusterResult
	var replicaRes *experiments.ReplicaResult
	var profileRes *experiments.ProfileResult
	var admissionRes *experiments.AdmissionResult

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
		case "online":
			res, err := experiments.RunOnline(*onlineRows, *onlineWidth)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res)
		case "drift":
			res, err := experiments.RunDrift(*driftRows, *driftWidth)
			if err != nil {
				return err
			}
			driftRes = res
			fmt.Fprintln(w, res)
		case "cluster":
			res, err := experiments.RunCluster(*clusterRows, *clusterWidth, *clusterNodes)
			if err != nil {
				return err
			}
			clusterRes = res
			fmt.Fprintln(w, res)
		case "replica":
			res, err := experiments.RunReplica(*replicaEvents, *replicaWidth)
			if err != nil {
				return err
			}
			replicaRes = res
			fmt.Fprintln(w, res)
		case "profile":
			res, err := experiments.RunProfileOverhead(*profileRows, *profileWidth)
			if err != nil {
				return err
			}
			profileRes = res
			fmt.Fprintln(w, res)
		case "admission":
			res, err := experiments.RunAdmission(*admRequests, *admFlood)
			if err != nil {
				return err
			}
			admissionRes = res
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
		for _, name := range []string{"table2", "fig7", "fig6", "fig11", "fig9", "fig12", "sec63", "cutoff", "robust", "bands", "learncurve", "online", "drift", "cluster", "replica", "profile", "admission", "fig8"} {
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
		if err := writeJSONSummary(f, timings, driftRes, clusterRes, replicaRes, profileRes, admissionRes); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", *outFile, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote summary to %s\n", *outFile)
	}
	if *jsonOut {
		return writeJSONSummary(jsonDst, timings, driftRes, clusterRes, replicaRes, profileRes, admissionRes)
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
	Online       onlineSummary     `json:"online"`
	// Drift carries the drift experiment's detection/recovery figures
	// when it ran (nil otherwise).
	Drift *experiments.DriftResult `json:"drift,omitempty"`
	// Cluster carries the sharded-cluster experiment's throughput,
	// exactness and gate before/after figures when it ran.
	Cluster *experiments.ClusterResult `json:"cluster,omitempty"`
	// Replica carries the WAL-shipped replication experiment's catch-up
	// throughput and steady-state propagation latency when it ran.
	Replica *experiments.ReplicaResult `json:"replica,omitempty"`
	// Profile carries the continuous-profiling overhead comparison
	// (ingest throughput ring-off vs ring-on) when it ran.
	Profile *experiments.ProfileResult `json:"profile,omitempty"`
	// Admission carries the traffic-protection figures (middleware
	// overhead, tenant isolation under flood, shed turnaround) when the
	// admission experiment ran.
	Admission *experiments.AdmissionResult `json:"admission,omitempty"`
	// ClusterMetrics snapshots the coordinator/worker rr_cluster_*
	// counters accumulated by the run.
	ClusterMetrics clusterSummary `json:"cluster_metrics"`
	// Alerts snapshots the rr_alert_* and monitor counters.
	Alerts alertSummary `json:"alerts"`
}

// clusterSummary is the rr_cluster_* registry footprint.
type clusterSummary struct {
	Rows        map[string]float64 `json:"rows"`   // ok | rejected
	Chunks      map[string]float64 `json:"chunks"` // ok | resharded | failed
	Merges      map[string]float64 `json:"merges"` // ok | degraded | error
	Pulls       map[string]float64 `json:"pulls"`  // ok | empty | error
	WorkerRows  float64            `json:"worker_rows"`
	Reshardings float64            `json:"reshardings"`
}

// alertSummary is the alert engine's and quality monitor's registry
// footprint for the run.
type alertSummary struct {
	Evals         float64            `json:"evals"`
	Transitions   map[string]float64 `json:"transitions"`
	GEEvals       map[string]float64 `json:"ge_evals"`
	AutoRollbacks float64            `json:"auto_rollbacks"`
}

// onlineSummary snapshots the live-ingest subsystem's counters and the
// republish / GE-gate histograms (rr_online_*), when the online
// experiment — or anything else pushing rows — ran in this process.
type onlineSummary struct {
	RowsIngested map[string]float64 `json:"rows_ingested"`
	Republishes  map[string]float64 `json:"republishes"`
	Promotions   float64            `json:"promotions"`
	Rejections   float64            `json:"rejections"`
	Republish    phaseStat          `json:"republish"`
	GEGate       phaseStat          `json:"ge_gate"`
	// GateFrac is GE-gate seconds over republish seconds: the share of
	// each re-mine spent deciding whether to promote it.
	GateFrac float64 `json:"gate_frac"`
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
func writeJSONSummary(w io.Writer, timings []benchExperiment, drift *experiments.DriftResult,
	clusterRes *experiments.ClusterResult, replicaRes *experiments.ReplicaResult,
	profileRes *experiments.ProfileResult, admissionRes *experiments.AdmissionResult) error {
	sum := benchSummary{
		Experiments: timings,
		Miner: minerSummary{
			Phases: make(map[string]phaseStat),
			Mines:  make(map[string]float64),
			Ops:    make(map[string]float64),
		},
		Online: onlineSummary{
			RowsIngested: make(map[string]float64),
			Republishes:  make(map[string]float64),
		},
		Drift:     drift,
		Cluster:   clusterRes,
		Replica:   replicaRes,
		Profile:   profileRes,
		Admission: admissionRes,
		ClusterMetrics: clusterSummary{
			Rows:   make(map[string]float64),
			Chunks: make(map[string]float64),
			Merges: make(map[string]float64),
			Pulls:  make(map[string]float64),
		},
		Alerts: alertSummary{
			Transitions: make(map[string]float64),
			GEEvals:     make(map[string]float64),
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
		case "rr_online_rows_ingested_total":
			sum.Online.RowsIngested[s.Labels["result"]] = s.Value
		case "rr_online_republishes_total":
			sum.Online.Republishes[s.Labels["result"]] = s.Value
		case "rr_online_promotions_total":
			sum.Online.Promotions = s.Value
		case "rr_online_ge_gate_rejections_total":
			sum.Online.Rejections = s.Value
		case "rr_online_republish_seconds_sum":
			sum.Online.Republish.Seconds = s.Value
		case "rr_online_republish_seconds_count":
			sum.Online.Republish.Count = s.Value
		case "rr_online_ge_gate_seconds_sum":
			sum.Online.GEGate.Seconds = s.Value
		case "rr_online_ge_gate_seconds_count":
			sum.Online.GEGate.Count = s.Value
		case "rr_alert_evals_total":
			sum.Alerts.Evals = s.Value
		case "rr_alert_transitions_total":
			sum.Alerts.Transitions[s.Labels["to"]] = s.Value
		case "rr_online_ge_evals_total":
			sum.Alerts.GEEvals[s.Labels["result"]] = s.Value
		case "rr_online_auto_rollbacks_total":
			sum.Alerts.AutoRollbacks = s.Value
		case "rr_cluster_rows_total":
			sum.ClusterMetrics.Rows[s.Labels["result"]] = s.Value
		case "rr_cluster_chunks_total":
			sum.ClusterMetrics.Chunks[s.Labels["result"]] = s.Value
		case "rr_cluster_merges_total":
			sum.ClusterMetrics.Merges[s.Labels["result"]] = s.Value
		case "rr_cluster_shard_pulls_total":
			sum.ClusterMetrics.Pulls[s.Labels["result"]] = s.Value
		case "rr_cluster_worker_rows_total":
			sum.ClusterMetrics.WorkerRows = s.Value
		case "rr_cluster_reshardings_total":
			sum.ClusterMetrics.Reshardings = s.Value
		}
	}
	if sum.Online.Republish.Seconds > 0 {
		sum.Online.GateFrac = sum.Online.GEGate.Seconds / sum.Online.Republish.Seconds
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

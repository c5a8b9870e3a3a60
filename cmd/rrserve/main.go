// Command rrserve runs the Ratio Rules HTTP service: mine models from
// JSON row sets and query them for reconstruction, forecasting and outlier
// detection. With -data-dir every model mutation is journaled to an
// embedded write-ahead-log store (see docs/persistence.md), so mined
// models — and their version history — survive restarts and crashes.
// Prometheus metrics are exposed at GET /metrics, liveness at
// GET /healthz, recent request traces at GET /debug/traces (see
// -trace-buffer / -trace-slow), and the server drains in-flight
// requests for up to 10s on SIGINT/SIGTERM before exiting.
//
// With -follow the server runs as a read-only follower replica: it
// tails the leader's committed WAL over GET /v1/replicate into its own
// store (durable with -data-dir, resuming from the checkpointed seq
// after a restart), serves every GET and inference route with bodies
// and ETags byte-identical to the leader, and answers mutating routes
// 403 read_only pointing at the leader (docs/replication.md).
//
// Usage:
//
//	rrserve -addr :8080 [-data-dir ./models] [-debug-addr :6060] [-v]
//
// Flags and environment:
//
//	-addr            listen address (default :8080)
//	-data-dir        model store directory; empty (the default) keeps
//	                 models in memory only. Opened (or created) at boot
//	                 with crash recovery, flushed on graceful shutdown
//	-snapshot-every  store events between automatic snapshots (default 64)
//	-max-versions    retained revisions per model (default 32, <= 0 all)
//	-max-body-bytes  request body cap, 413 beyond it (default 32 MiB);
//	                 the streaming /batch endpoints are exempt
//	-batch-workers   worker pool width per /batch request (default:
//	                 one worker per CPU)
//	-trace-buffer    flight-recorder capacity in completed traces
//	                 (default 256); the last N request span trees are
//	                 queryable at GET /debug/traces
//	-trace-slow      always-on slow-trace log threshold (default 1s);
//	                 0 disables the log line, not the tracing
//	-debug-addr      optional side listener serving net/http/pprof under
//	                 /debug/pprof/ — keep it on localhost or a private
//	                 network, never the public service address
//	-republish-rows  ingested rows between re-mines of a live stream
//	                 (default 256; see docs/online.md)
//	-republish-every interval re-mine of dirty live streams (default 0,
//	                 disabled; row-count triggers still apply)
//	-ge-slack        allowed relative GE1 regression before the promotion
//	                 gate rejects a re-mined candidate (default 0.05)
//	-reservoir       holdout reservoir rows per live stream (default 256)
//	-checkpoint-every republishes between stream checkpoints (default 8);
//	                 streams also checkpoint on graceful shutdown
//	-ge-eval-every   interval re-score of every served model against its
//	                 live holdout reservoir (default 0, disabled); each
//	                 tick appends a GE sample and runs the alert rules
//	-ge-history      retained GE samples per live stream (default 256)
//	-auto-rollback   when a sustained GE regression alert fires, roll the
//	                 model back to the best-scoring retained version
//	                 (default off; see docs/observability.md)
//	-rollback-margin relative GE improvement an old version must offer
//	                 before auto-rollback picks it (default 0.2)
//	-rollback-cooldown minimum gap between automatic rollbacks per
//	                 stream (default 5m) — the flap gate
//	-alert-ge-max    absolute GE1 ceiling alert (default 0, disabled)
//	-alert-ratio     regression alert ratio vs trailing baseline (1.5)
//	-alert-for       breach duration before an alert fires (default 0)
//	-alert-cooldown  post-resolve suppression window (default 5m)
//	-node            run as a cluster worker node: serve only the
//	                 internal shard API and /metrics (docs/cluster.md)
//	-coordinator     coordinator base URL a -node announces itself to
//	-advertise       public URL of this -node (default from -addr)
//	-cluster-workers comma-separated worker URLs; non-empty makes this
//	                 server the cluster coordinator: ingest fans out,
//	                 merges republish through the normal GE gate
//	-cluster-chunk   rows per fan-out chunk (default 512)
//	-cluster-pull-every     pull-merge-republish interval (default 2s)
//	-cluster-pull-retries   pull retries before degraded merge (3)
//	-cluster-backoff        initial pull retry backoff (default 100ms)
//	-cluster-health-every   membership probe interval (default 1s)
//	-cluster-republish-rows acked rows forcing an early merge (65536)
//	-follow          leader base URL; non-empty runs this server as a
//	                 read-only follower replica tailing the leader's WAL
//	                 (incompatible with -node and -cluster-workers)
//	-max-replica-lag replication staleness bound; beyond it a follower's
//	                 /readyz answers 503 replica_lagging (default 30s)
//	-replication-log upper bound on the committed events retained in
//	                 memory for follower catch-up (default 1024); an
//	                 event also leaves the log when -max-versions prunes
//	                 the revision it carried. Followers further behind
//	                 bootstrap from a snapshot frame instead
//	-profile-every   continuous-profiling capture cadence (default 1m;
//	                 0 disables the loop — /debug/profiles then lists
//	                 an empty ring)
//	-profile-cpu     CPU capture window per cycle (default 50ms; 0
//	                 keeps only heap/goroutine snapshots)
//	-fleet-members   comma-separated [name=]url member list; non-empty
//	                 (or coordinator mode, which feeds live cluster
//	                 membership automatically) starts the fleet
//	                 collector serving GET /metrics/fleet and
//	                 GET /debug/fleet (docs/observability.md)
//	-fleet-every     fleet scrape interval (default 5s)
//	-fleet-self      node label for this node's own series in the
//	                 fleet exposition (default "self")
//	-tenants-file    JSON tenant registry (bearer tokens, per-tenant
//	                 limit overrides); setting it — or any admission
//	                 flag below — turns admission control on. The file
//	                 is hot-reloaded on SIGHUP or on-disk change
//	                 (docs/api.md, docs/runbook.md)
//	-admission-rps   default per-tenant request rate (requests/s,
//	                 0 = unlimited); -admission-burst sets the bucket
//	                 burst (0 = one second of rate)
//	-admission-rows  default per-tenant ingest row rate (rows/s) with
//	                 -admission-row-burst; -admission-batch-rows and
//	                 -admission-batch-row-burst meter /batch rows
//	-admission-inflight default per-tenant in-flight request quota
//	                 (0 = unlimited)
//	-admission-wait  bounded wait for a quota slot or row tokens
//	                 before a request sheds with 429 (default 100ms)
//	-max-inflight    global in-flight ceiling; beyond it requests shed
//	                 lowest-priority tenants first (0 disables)
//	-ingest-queue    bounded waiters behind each model's ingest fold
//	                 (default 64; < 0 disables the queue)
//	-v               debug logging (overrides RR_LOG_LEVEL)
//	RR_LOG_LEVEL  debug|info|warn|error (default info)
//	RR_LOG_FORMAT text|json (default text)
//
// Example session:
//
//	curl -X POST localhost:8080/v1/rules -d '{"name":"sales","rows":[[1,2],[2,4],[3,6]]}'
//	curl -X POST localhost:8080/v1/rules/sales/fill -d '{"record":[4,0],"holes":[1]}'
//	curl localhost:8080/v1/rules/sales/versions
//	curl -X POST localhost:8080/v1/rules/sales/rollback -d '{"version":1}'
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ratiorules/internal/admission"
	"ratiorules/internal/cluster"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/alert"
	"ratiorules/internal/obs/fleet"
	"ratiorules/internal/obs/profile"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/online"
	"ratiorules/internal/replica"
	"ratiorules/internal/server"
	"ratiorules/internal/store"
)

// drainTimeout bounds how long shutdown waits for in-flight requests.
const drainTimeout = 10 * time.Second

// notifyListening, when non-nil, receives each listener's bound
// address ("main" or "debug") — a test seam for -addr :0.
var notifyListening func(name, addr string)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rrserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rrserve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		dataDir       = fs.String("data-dir", "", "model store directory (empty = in-memory only)")
		snapshotEvery = fs.Int("snapshot-every", 64, "store events between automatic snapshots (<= 0 disables)")
		maxVersions   = fs.Int("max-versions", 32, "retained revisions per model (<= 0 keeps all)")
		maxBodyBytes  = fs.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "request body cap in bytes (<= 0 disables)")
		batchWorkers  = fs.Int("batch-workers", 0, "worker pool width per /batch request (<= 0 = one per CPU)")
		traceBuffer   = fs.Int("trace-buffer", trace.DefaultBufferSize, "flight-recorder capacity in completed traces")
		traceSlow     = fs.Duration("trace-slow", time.Second, "slow-trace log threshold (0 disables the log)")
		debugAddr     = fs.String("debug-addr", "", "optional pprof side-listener address (e.g. localhost:6060)")
		verbose       = fs.Bool("v", false, "debug logging")

		republishRows   = fs.Int("republish-rows", online.DefaultRepublishRows, "ingested rows between re-mines of a live stream")
		republishEvery  = fs.Duration("republish-every", 0, "interval re-mine of dirty live streams (0 disables)")
		geSlack         = fs.Float64("ge-slack", online.DefaultGESlack, "allowed relative GE1 regression before a candidate is rejected")
		reservoirSize   = fs.Int("reservoir", online.DefaultReservoirSize, "holdout reservoir rows per live stream")
		checkpointEvery = fs.Int("checkpoint-every", online.DefaultCheckpointEvery, "republishes between stream checkpoints (with -data-dir)")

		geEvalEvery      = fs.Duration("ge-eval-every", 0, "interval re-score of served models against the live holdout (0 disables)")
		geHistory        = fs.Int("ge-history", online.DefaultGEHistorySize, "retained GE samples per live stream")
		autoRollback     = fs.Bool("auto-rollback", false, "on a firing GE regression alert, roll back to the best retained version")
		rollbackMargin   = fs.Float64("rollback-margin", online.DefaultRollbackMargin, "relative GE improvement an old version must offer before auto-rollback")
		rollbackCooldown = fs.Duration("rollback-cooldown", online.DefaultRollbackCooldown, "minimum gap between automatic rollbacks per stream")
		alertGEMax       = fs.Float64("alert-ge-max", 0, "absolute GE1 ceiling alert threshold (0 disables the ceiling rule)")
		alertRatio       = fs.Float64("alert-ratio", 1.5, "GE regression alert fires when recent GE exceeds baseline by this factor")
		alertFor         = fs.Duration("alert-for", 0, "breaches must persist this long before an alert fires (0 fires immediately)")
		alertCooldown    = fs.Duration("alert-cooldown", 5*time.Minute, "suppression window after an alert resolves")

		nodeMode    = fs.Bool("node", false, "run as a cluster worker node (shard API only; see docs/cluster.md)")
		coordinator = fs.String("coordinator", "", "coordinator base URL a -node announces itself to")
		advertise   = fs.String("advertise", "", "public URL of this -node for the coordinator (default: derived from -addr)")

		clusterWorkers     = fs.String("cluster-workers", "", "comma-separated worker node URLs; non-empty runs this server as the cluster coordinator")
		clusterChunk       = fs.Int("cluster-chunk", cluster.DefaultChunkRows, "rows per fan-out chunk in coordinator mode")
		clusterPullEvery   = fs.Duration("cluster-pull-every", cluster.DefaultPullEvery, "shard pull-merge-republish interval")
		clusterPullRetries = fs.Int("cluster-pull-retries", cluster.DefaultPullRetries, "shard pull retries before a merge degrades to the retained snapshot")
		clusterBackoff     = fs.Duration("cluster-backoff", cluster.DefaultBackoff, "initial shard pull retry backoff (doubles per attempt)")
		clusterHealth      = fs.Duration("cluster-health-every", cluster.DefaultHealthEvery, "worker membership probe interval")
		clusterRepublish   = fs.Int("cluster-republish-rows", cluster.DefaultRepublishRows, "acked rows that trigger an early merge-republish for a model")

		follow         = fs.String("follow", "", "leader base URL; non-empty runs this server as a read-only follower replica")
		maxReplicaLag  = fs.Duration("max-replica-lag", server.DefaultMaxReplicaLag, "replication staleness beyond which a follower's /readyz answers 503")
		replicationLog = fs.Int("replication-log", store.DefaultReplicationLog, "upper bound on committed events retained in memory for follower catch-up; an event also leaves when -max-versions prunes its revision")

		profileEvery = fs.Duration("profile-every", time.Minute, "continuous-profiling capture cadence (0 disables the capture loop)")
		profileCPU   = fs.Duration("profile-cpu", 50*time.Millisecond, "CPU capture window per profiling cycle (0 keeps only snapshots)")

		fleetMembers = fs.String("fleet-members", "", "comma-separated [name=]url fleet member list; non-empty starts the fleet collector")
		fleetEvery   = fs.Duration("fleet-every", fleet.DefaultInterval, "fleet scrape interval")
		fleetSelf    = fs.String("fleet-self", "self", "node label for this node's own series in the fleet exposition")

		tenantsFile       = fs.String("tenants-file", "", "JSON tenant registry (bearer tokens, per-tenant limits); hot-reloaded on SIGHUP or file change")
		admissionRPS      = fs.Float64("admission-rps", 0, "default per-tenant request rate limit, requests/s (0 = unlimited)")
		admissionBurst    = fs.Float64("admission-burst", 0, "default request-bucket burst (0 = one second of rate)")
		admissionRows     = fs.Float64("admission-rows", 0, "default per-tenant ingest row rate limit, rows/s (0 = unlimited)")
		admissionRowB     = fs.Float64("admission-row-burst", 0, "default ingest row-bucket burst (0 = one second of rate)")
		admissionBatch    = fs.Float64("admission-batch-rows", 0, "default per-tenant batch inference row rate limit, rows/s (0 = unlimited)")
		admissionBatchB   = fs.Float64("admission-batch-row-burst", 0, "default batch row-bucket burst (0 = one second of rate)")
		admissionInflight = fs.Int("admission-inflight", 0, "default per-tenant in-flight request quota (0 = unlimited)")
		admissionWait     = fs.Duration("admission-wait", admission.DefaultMaxWait, "bounded wait for a quota slot or row tokens before shedding")
		maxInflight       = fs.Int("max-inflight", 0, "global in-flight ceiling; beyond it requests shed lowest-priority first (0 disables)")
		ingestQueue       = fs.Int("ingest-queue", admission.DefaultIngestQueue, "bounded waiters behind each model's ingest fold (< 0 disables the queue)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow != "" {
		if *nodeMode {
			return errors.New("-follow and -node are mutually exclusive: a follower replicates a leader, a node serves cluster shards")
		}
		if *clusterWorkers != "" {
			return errors.New("-follow and -cluster-workers are mutually exclusive: a follower is read-only and cannot coordinate ingest")
		}
	}
	logger := obs.Setup(*verbose)
	if *nodeMode {
		return runNode(ctx, logger, *addr, *coordinator, *advertise)
	}

	// The store (memory or durable) carries the replication surface in
	// every role: leaders stream their replog to followers, and a
	// follower's own store keeps the log too, so it can feed further
	// followers (cascading fan-out).
	storeOpts := []store.Option{
		store.WithLogger(logger), store.WithSnapshotEvery(*snapshotEvery),
		store.WithMaxVersions(*maxVersions), store.WithReplicationLog(*replicationLog),
	}
	reg := server.NewRegistryWithStore(store.OpenMemory(storeOpts...))
	closeStore := func() {}
	if *dataDir != "" {
		st, err := store.Open(*dataDir, storeOpts...)
		if err != nil {
			return fmt.Errorf("opening model store: %w", err)
		}
		reg = server.NewRegistryWithStore(st)
		logger.Info("model store open", "dir", *dataDir, "models", st.Len())
		closeStore = func() {
			if err := st.Close(); err != nil {
				logger.Error("closing model store", "err", err)
			} else {
				logger.Info("model store flushed and closed", "dir", *dataDir)
			}
		}
	}
	defer closeStore()

	tracer := trace.New(trace.Config{
		BufferSize: *traceBuffer,
		Slow:       *traceSlow,
		Logger:     logger,
		Dropped:    obs.SpanDropCounter(obs.Default()),
	})

	// Alert rules: the defaults (regression ratio, drift slope,
	// rejection rate) with the tuning flags applied, plus an absolute
	// GE ceiling when -alert-ge-max is set.
	rules := alert.DefaultRules()
	for i := range rules {
		if rules[i].Kind == alert.KindRegression {
			rules[i].Ratio = *alertRatio
		}
		rules[i].For = *alertFor
		rules[i].Cooldown = *alertCooldown
	}
	if *alertGEMax > 0 {
		rules = append(rules, alert.Rule{
			Name: "ge_ceiling", Kind: alert.KindCeiling, Max: *alertGEMax,
			For: *alertFor, Cooldown: *alertCooldown,
		})
	}
	alerts, err := alert.NewEngine(alert.Config{Rules: rules, Logger: logger})
	if err != nil {
		return fmt.Errorf("building alert engine: %w", err)
	}

	onlineCfg := online.Config{
		RepublishRows:    *republishRows,
		RepublishEvery:   *republishEvery,
		GESlack:          *geSlack,
		ReservoirSize:    *reservoirSize,
		CheckpointEvery:  *checkpointEvery,
		GEEvalEvery:      *geEvalEvery,
		GEHistorySize:    *geHistory,
		Alerts:           alerts,
		AutoRollback:     *autoRollback,
		RollbackMargin:   *rollbackMargin,
		RollbackCooldown: *rollbackCooldown,
		Logger:           logger,
		Tracer:           tracer,
	}
	if *dataDir != "" {
		// Stream checkpoints live beside the model store so one -data-dir
		// carries both the served models and the accumulators feeding them.
		onlineCfg.CheckpointDir = filepath.Join(*dataDir, "online")
	}
	mgr, err := online.NewManager(reg, onlineCfg)
	if err != nil {
		return fmt.Errorf("starting online manager: %w", err)
	}
	mgr.Start()
	defer func() {
		if err := mgr.Close(); err != nil {
			logger.Error("closing online manager", "err", err)
		} else if onlineCfg.CheckpointDir != "" {
			logger.Info("live streams checkpointed", "dir", onlineCfg.CheckpointDir)
		}
	}()

	handlerOpts := []server.HandlerOption{
		server.WithLogger(logger), server.WithMaxBodyBytes(*maxBodyBytes),
		server.WithBatchWorkers(*batchWorkers), server.WithTracer(tracer),
		server.WithOnline(mgr),
	}
	var coord *cluster.Coordinator // non-nil in coordinator mode; feeds the fleet collector
	if *clusterWorkers != "" {
		coord, err = cluster.New(cluster.Config{
			Workers:       splitWorkers(*clusterWorkers),
			Manager:       mgr,
			ChunkRows:     *clusterChunk,
			PullEvery:     *clusterPullEvery,
			PullRetries:   *clusterPullRetries,
			Backoff:       *clusterBackoff,
			HealthEvery:   *clusterHealth,
			RepublishRows: *clusterRepublish,
			Tracer:        tracer,
			Logger:        logger,
		})
		if err != nil {
			return fmt.Errorf("building cluster coordinator: %w", err)
		}
		coord.Start()
		defer func() {
			closeCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if err := coord.Close(closeCtx); err != nil {
				logger.Error("closing cluster coordinator", "err", err)
			}
		}()
		st := coord.Status()
		logger.Info("cluster coordinator up",
			"workers", len(st.Members), "healthy", st.Healthy)
		handlerOpts = append(handlerOpts, server.WithCluster(coord))
	}
	if *follow != "" {
		fol, err := replica.New(replica.Options{
			Leader:   *follow,
			Store:    reg.Store(),
			Logger:   logger,
			Registry: obs.Default(),
			Tracer:   tracer,
		})
		if err != nil {
			return fmt.Errorf("building follower replica: %w", err)
		}
		folCtx, folCancel := context.WithCancel(ctx)
		folDone := make(chan struct{})
		go func() {
			defer close(folDone)
			if err := fol.Run(folCtx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Error("replica tail stopped", "err", err)
			}
		}()
		defer func() {
			folCancel()
			<-folDone
		}()
		logger.Info("following leader", "leader", *follow, "max_lag", *maxReplicaLag)
		handlerOpts = append(handlerOpts, server.WithFollower(fol, *follow, *maxReplicaLag))
	}

	// Continuous profiling: an always-on ring of short CPU captures and
	// heap/goroutine snapshots served at /debug/profiles. -profile-every 0
	// leaves the default passive ring in place (empty listing).
	if *profileEvery > 0 {
		cpu := *profileCPU
		if cpu <= 0 {
			cpu = -1 // profile.New: negative disables CPU captures, 0 means default
		}
		ring := profile.New(profile.Config{
			Interval:    *profileEvery,
			CPUDuration: cpu,
			Logger:      logger,
			Metrics:     obs.Default(),
		})
		go ring.Run(ctx)
		logger.Info("continuous profiling on",
			"every", ring.Interval(), "cpu", ring.CPUDuration())
		handlerOpts = append(handlerOpts, server.WithProfiles(ring))
	}

	// Fleet collector: static -fleet-members plus, in coordinator mode,
	// the live cluster membership. Serves /metrics/fleet + /debug/fleet.
	if *fleetMembers != "" || coord != nil {
		selfRole := "leader"
		switch {
		case *follow != "":
			selfRole = "follower"
		case coord != nil:
			selfRole = "coordinator"
		}
		fleetCfg := fleet.Config{
			Members:     parseFleetMembers(*fleetMembers),
			Interval:    *fleetEvery,
			Logger:      logger,
			Metrics:     obs.Default(),
			SelfName:    *fleetSelf,
			SelfRole:    selfRole,
			SelfMetrics: obs.Default(),
		}
		if coord != nil {
			c := coord
			fleetCfg.Source = func() []fleet.Member {
				var out []fleet.Member
				for _, m := range c.Status().Members {
					out = append(out, fleet.Member{Name: m.Instance, URL: m.URL, Role: "worker"})
				}
				return out
			}
		}
		collector := fleet.New(fleetCfg)
		go collector.Run(ctx)
		logger.Info("fleet collector up",
			"static_members", len(fleetCfg.Members), "coordinator_sourced", coord != nil,
			"every", collector.Interval())
		handlerOpts = append(handlerOpts, server.WithFleet(collector))
	}

	// Admission control: on when -tenants-file names a registry or any
	// admission tuning flag was given explicitly. Off (the default) the
	// handler chain is untouched — no auth, no limits, no per-request
	// overhead — and model names stay unprefixed in the store.
	admissionOn := *tenantsFile != ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "admission-rps", "admission-burst", "admission-rows", "admission-row-burst",
			"admission-batch-rows", "admission-batch-row-burst", "admission-inflight",
			"admission-wait", "max-inflight", "ingest-queue":
			admissionOn = true
		}
	})
	if admissionOn {
		ctrl, err := admission.New(admission.Config{
			TenantsFile: *tenantsFile,
			Defaults: admission.Limits{
				RequestsPerSecond:  *admissionRPS,
				RequestBurst:       *admissionBurst,
				RowsPerSecond:      *admissionRows,
				RowBurst:           *admissionRowB,
				BatchRowsPerSecond: *admissionBatch,
				BatchRowBurst:      *admissionBatchB,
				MaxInFlight:        *admissionInflight,
			},
			GlobalInFlight: *maxInflight,
			IngestQueue:    *ingestQueue,
			MaxWait:        *admissionWait,
			Logger:         logger,
			Metrics:        obs.Default(),
		})
		if err != nil {
			return fmt.Errorf("building admission controller: %w", err)
		}
		go ctrl.Run(ctx) // tenant-file mtime polling
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					if err := ctrl.Reload(); err != nil {
						logger.Error("tenant registry reload failed, keeping last-good", "err", err)
					} else {
						logger.Info("tenant registry reloaded on SIGHUP")
					}
				}
			}
		}()
		logger.Info("admission control on",
			"tenants_file", *tenantsFile, "global_inflight", *maxInflight,
			"max_wait", *admissionWait)
		handlerOpts = append(handlerOpts, server.WithAdmission(ctrl))
	}

	// baseCancel ends the long-lived replication streams (they select on
	// the request context) so a graceful Shutdown can actually drain:
	// followers reconnect and resume from their applied seq.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	srv := &http.Server{
		Handler:           server.Handler(reg, handlerOpts...),
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("rrserve listening", "addr", ln.Addr().String())
	if notifyListening != nil {
		notifyListening("main", ln.Addr().String())
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv, err = startDebugServer(*debugAddr, logger)
		if err != nil {
			ln.Close()
			return err
		}
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight requests", "timeout", drainTimeout)
	baseCancel()
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err = srv.Shutdown(drainCtx)
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	if err != nil {
		logger.Error("drain incomplete, closing remaining connections", "err", err)
		_ = srv.Close()
		return err
	}
	logger.Info("drained cleanly")
	return nil
}

// parseFleetMembers parses the -fleet-members list: comma-separated
// entries, each "url" or "name=url".
func parseFleetMembers(raw string) []fleet.Member {
	var out []fleet.Member
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m := fleet.Member{URL: part}
		if name, url, ok := strings.Cut(part, "="); ok {
			m.Name, m.URL = strings.TrimSpace(name), strings.TrimSpace(url)
		}
		out = append(out, m)
	}
	return out
}

// startDebugServer serves net/http/pprof on its own listener so
// profiling never shares a port (or an exposure surface) with the
// public API.
func startDebugServer(addr string, logger *slog.Logger) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	logger.Info("pprof debug listener up", "addr", ln.Addr().String())
	if notifyListening != nil {
		notifyListening("debug", ln.Addr().String())
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug listener failed", "err", err)
		}
	}()
	return srv, nil
}

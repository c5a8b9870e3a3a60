package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/online"
	"ratiorules/internal/replica"
	"ratiorules/internal/server"
	"ratiorules/internal/store"
)

// node is one in-process rrserve instance on a 127.0.0.1 listener,
// wired like rrserve's defaults: memory store with replication log,
// online manager started, admission off, always-on request tracing.
type node struct {
	url     string
	store   *store.Store
	reg     *server.Registry
	mgr     *online.Manager
	metrics *obs.Registry
	srv     *http.Server
	served  chan error
	cancel  context.CancelFunc // ends long-lived replication streams
}

// stack is a leader and its follower replica.
type stack struct {
	leader, follower *node
	folCancel        context.CancelFunc
	folDone          chan struct{}
}

// leaderConfig carries the few rrserve flags a workload changes.
type leaderConfig struct {
	republishRows int     // -republish-rows; 0 keeps the default
	geSlack       float64 // -ge-slack; < 0 keeps the default
}

// quietLogger formats at info level like rrserve but discards the text.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// startNode builds a node; leaderURL non-empty makes it a follower.
func startNode(met *obs.Registry, cfg leaderConfig, leaderURL string) (*node, *replica.Follower, error) {
	logger := quietLogger()
	st := store.OpenMemory(store.WithLogger(logger), store.WithSnapshotEvery(64),
		store.WithMaxVersions(32), store.WithReplicationLog(store.DefaultReplicationLog),
		store.WithObs(met))
	reg := server.NewRegistryWithStore(st)
	tracer := trace.New(trace.Config{
		BufferSize: trace.DefaultBufferSize, Slow: time.Second,
		Logger: logger, Dropped: obs.SpanDropCounter(met),
	})
	slack := cfg.geSlack
	if slack < 0 {
		slack = online.DefaultGESlack
	}
	mgr, err := online.NewManager(reg, online.Config{
		RepublishRows: cfg.republishRows, GESlack: slack,
		Logger: logger, Tracer: tracer, Metrics: met,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("online manager: %w", err)
	}
	mgr.Start()
	opts := []server.HandlerOption{
		server.WithObs(met), server.WithLogger(logger),
		server.WithMaxBodyBytes(server.DefaultMaxBodyBytes),
		server.WithTracer(tracer), server.WithOnline(mgr),
	}
	var fol *replica.Follower
	if leaderURL != "" {
		fol, err = replica.New(replica.Options{
			Leader: leaderURL, Store: st, Logger: logger, Registry: met, Tracer: tracer,
		})
		if err != nil {
			_ = mgr.Close()
			return nil, nil, fmt.Errorf("follower: %w", err)
		}
		opts = append(opts, server.WithFollower(fol, leaderURL, server.DefaultMaxReplicaLag))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Close()
		return nil, nil, err
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	n := &node{
		url: "http://" + ln.Addr().String(), store: st, reg: reg, mgr: mgr,
		metrics: met, cancel: cancel, served: make(chan error, 1),
		srv: &http.Server{
			Handler:           server.Handler(reg, opts...),
			BaseContext:       func(net.Listener) context.Context { return baseCtx },
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
		},
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, fol, nil
}

// close drains the node's server and stops its manager.
func (n *node) close() {
	n.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		_ = n.srv.Close()
	}
	<-n.served
	_ = n.mgr.Close()
}

// startStack starts a leader on the default metrics registry (where the
// core package's counters live too) and a follower on its own registry,
// and waits until the follower is connected.
func startStack(cfg leaderConfig) (*stack, error) {
	leader, _, err := startNode(obs.Default(), cfg, "")
	if err != nil {
		return nil, err
	}
	follower, fol, err := startNode(obs.NewRegistry(), leaderConfig{geSlack: -1}, leader.url)
	if err != nil {
		leader.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{leader: leader, follower: follower, folCancel: cancel, folDone: make(chan struct{})}
	go func() {
		defer close(s.folDone)
		_ = fol.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !fol.Status().Connected {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("follower did not connect to the leader")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

func (s *stack) close() {
	s.folCancel()
	<-s.folDone
	s.follower.close()
	s.leader.close()
}

// waitVersion blocks until st holds version >= want of name, or the
// timeout passes; it reports whether the version arrived.
func waitVersion(st *store.Store, name string, want int, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		ch := st.Changed()
		if _, v, ok := st.Get(name); ok && v >= want {
			return true
		}
		select {
		case <-ch:
		case <-timer.C:
			return false
		}
	}
}

// newClient returns a client that holds at most one connection, so each
// load goroutine owns exactly one.
func newClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// post sends body and returns the status and the whole response body.
func post(c *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get returns the status, body and ETag of a GET.
func get(c *http.Client, url string) (int, []byte, string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get("ETag"), err
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function. Parent is the enclosing span's ID (0 for a
// root); spans of one op share a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the traced run. A nil recorder
// records nothing, so untraced code paths call it freely.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span opened as id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed records fn as one span named name and returns its duration.
func (r *recorder) timed(name string, parent int, fn func()) time.Duration {
	id := r.start(name, parent)
	t := time.Now()
	fn()
	d := time.Since(t)
	r.end(id)
	return d
}

// durations lists the durations of every closed span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// medianMS is the median duration of the spans named name, in ms.
func (r *recorder) medianMS(name string) float64 {
	return median(r.durations(name)) / float64(time.Millisecond)
}

// selfTimes gives each closed span's duration minus the part of its
// interval that its children cover, keyed by span ID.
func (r *recorder) selfTimes() map[int]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 && s.End > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, reach := time.Duration(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// write stores every span, with its self time, as JSON lines in dir.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	self := r.selfTimes()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		line := struct {
			span
			SelfNS time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

package core

import (
	"context"
	"testing"

	"ratiorules/internal/obs/trace"
)

// TestBatchFillSpanParentage drives a batch fill under an active trace
// and checks that every per-row span recorded by a pool worker parents
// to the caller's span — the ctx hop through runOrdered — and that each
// row's fill.solve span parents to its row.
func TestBatchFillSpanParentage(t *testing.T) {
	rules, data := batchFixture(t, 21, 6, 5, 2)

	tr := trace.New(trace.Config{})
	ctx, root := tr.StartRoot(context.Background(), "test batch", trace.SpanContext{})

	rows := len(data)
	jobs := make(chan FillJob)
	go func() {
		defer close(jobs)
		for _, rec := range data {
			jobs <- FillJob{Record: rec, Holes: []int{0}}
		}
	}()
	for res := range rules.BatchFill(ctx, jobs, BatchOptions{Workers: 3}) {
		if res.Err != nil {
			t.Fatalf("row %d: %v", res.Index, res.Err)
		}
	}
	root.End()

	td, ok := tr.Recorder().Get(root.TraceID())
	if !ok {
		t.Fatal("trace not recorded")
	}
	spanByID := map[string]trace.SpanData{}
	for _, sp := range td.Spans {
		spanByID[sp.SpanID] = sp
	}
	var rowSpans, solveSpans int
	for _, sp := range td.Spans {
		switch sp.Name {
		case "batch.row":
			rowSpans++
			if sp.ParentID != root.SpanID() {
				t.Fatalf("batch.row parented to %q, want root %q", sp.ParentID, root.SpanID())
			}
			if sp.Duration <= 0 {
				t.Fatalf("batch.row has zero duration")
			}
			attrs := map[string]any{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			if attrs["op"] != "fill" {
				t.Fatalf("batch.row attrs = %v", sp.Attrs)
			}
			if _, ok := attrs["queue_wait_us"]; !ok {
				t.Fatalf("batch.row missing queue_wait_us: %v", sp.Attrs)
			}
		case "fill.solve":
			solveSpans++
			parent, ok := spanByID[sp.ParentID]
			if !ok || parent.Name != "batch.row" {
				t.Fatalf("fill.solve parented to %+v", parent)
			}
		}
	}
	if rowSpans != rows {
		t.Fatalf("recorded %d batch.row spans, want %d", rowSpans, rows)
	}
	if solveSpans != rows {
		t.Fatalf("recorded %d fill.solve spans, want %d", solveSpans, rows)
	}
}

// TestBatchFillNoTraceNoOverhead runs the same batch without a trace in
// ctx and just asserts nothing breaks (spans are nil no-ops).
func TestBatchFillNoTraceNoOverhead(t *testing.T) {
	rules, data := batchFixture(t, 22, 4, 5, 2)
	holes := make([][]int, len(data))
	for i := range holes {
		holes[i] = []int{1}
	}
	for i, res := range rules.BatchFillSlice(data, holes, BatchOptions{Workers: 2}) {
		if res.Err != nil {
			t.Fatalf("row %d: %v", i, res.Err)
		}
	}
}

package server

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestLineWriterBursts: lines wait in the buffer until flush, close or
// flushBytes; a line that cannot be encoded adds nothing, so the stream
// stays well framed; error lines keep encoding/json's HTML escaping, and
// a nil fill result is null, as encoding/json writes a nil slice.
func TestLineWriterBursts(t *testing.T) {
	rec := httptest.NewRecorder()
	lw := newLineWriter(rec, http.NewResponseController(rec))
	if !lw.emitAck(0, 1) || lw.emitFilled(1, []float64{1, math.NaN()}) ||
		lw.emitFilled(2, []float64{math.Inf(-1)}) || !lw.emitFilled(3, []float64{0.5, 1e-7}) ||
		!lw.emitErr(4, errors.New("<bad>")) || !lw.emitFilled(5, nil) {
		t.Fatal("emit results: want NaN and Inf lines refused, the rest added")
	}
	if rec.Body.Len() != 0 || rec.Flushed {
		t.Fatalf("lines written before a flush: %q", rec.Body)
	}
	if !lw.flush() || !rec.Flushed {
		t.Fatal("flush did not reach the client")
	}
	want := `{"index":0,"count":1}` + "\n" +
		`{"index":3,"filled":[0.5,1e-7]}` + "\n" +
		`{"index":4,"error":{"code":"internal","message":"\u003cbad\u003e"}}` + "\n" +
		`{"index":5,"filled":null}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("stream\n%s\nwant\n%s", got, want)
	}

	rec.Body.Reset()
	var lines int
	for rec.Body.Len() == 0 {
		if !lw.emitAck(lines, 1) {
			t.Fatal("emitAck refused a line")
		}
		lines++
	}
	if n := rec.Body.Len(); n < flushBytes || n > flushBytes+64 {
		t.Fatalf("wrote %d bytes at the cap, want about %d", n, flushBytes)
	}
	lw.emitAck(lines, 2)
	lw.close()
	if got := strings.Count(rec.Body.String(), "\n"); got != lines+1 {
		t.Fatalf("close wrote %d lines in all, want %d", got, lines+1)
	}
}

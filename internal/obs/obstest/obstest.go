// Package obstest holds test helpers for asserting on what a process
// exposes and spends; it lives outside the obs test files so the tests
// of several packages can share the exposition-format validator and the
// allocation meter.
package obstest

import (
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// AllocBytes reports the bytes the process allocated while f ran,
// other goroutines' allocations included.
func AllocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sampleLine matches a valid Prometheus text-format sample: a metric
// name, an optional {k="v",...} label block, and a float value.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? ` +
		`(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$`)

// ValidateExposition fails the test unless every line of body is a
// HELP/TYPE comment or a well-formed sample whose family was announced
// by HELP and TYPE lines — the structural validity check behind the
// "/metrics serves valid Prometheus text format" guarantee.
func ValidateExposition(t testing.TB, body string) {
	t.Helper()
	if body == "" {
		t.Error("empty exposition body")
		return
	}
	if !strings.HasSuffix(body, "\n") {
		t.Error("exposition does not end in a newline")
	}
	announced := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 3 {
				t.Errorf("malformed comment line %q", line)
				continue
			}
			announced[fields[2]] = true
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !announced[name] && !announced[base] {
			t.Errorf("sample %q has no HELP/TYPE announcement", name)
		}
	}
}

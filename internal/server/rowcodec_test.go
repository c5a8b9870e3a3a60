package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// The success lines as encoding/json writes them: the oracle the row
// codec's appenders are held to.
type (
	ingestAck struct {
		Index int `json:"index"`
		Count int `json:"count"`
	}
	batchFillLine struct {
		Index  int       `json:"index"`
		Filled []float64 `json:"filled"`
	}
)

// FuzzRowCodec holds the row codec to encoding/json. For any line, each
// decoder shape either declines or returns exactly what json.Unmarshal
// decodes: the same bits, the same lengths, and nil only where
// encoding/json leaves nil. For any []float64, the appenders write
// json.Marshal's bytes, or both fail on NaN/Inf. For any body, the
// framer yields the lines bufio.Scanner did, trimmed and non-blank.
func FuzzRowCodec(f *testing.F) {
	for _, seed := range []string{
		`[1,2,3]`, `[]`, `[-0]`, `[1e-7]`, `[1e21]`, `[5e-324]`, `[1e-400]`,
		`[1e400]`, `[01]`, `[1.]`, `[.5]`, `[+1]`, `null`, `[1,null]`,
		"[1,\t2 ]", "\t[1]\t", `[1] x`, `[0.1,-2.5E+3,123456789012345678901234]`,
		`{"row":[1,2]}`, `{"ROW":[1,2]}`, `{"row":[1],"row":[2]}`,
		`{"row":[1],"other":true}`, `{"other":true}`, `{"row":null}`, `{}`,
		`{"record":[4,0],"holes":[1]}`, `{ "holes" : [ 1 ] , "record" : [ 4 , 0 ] }`,
		`{"record":[4,0],"holes":[1.0]}`, `{"record":[4,0],"holes":[1e0]}`,
		`{"record":[4,0],"holes":[]}`, `{"record":[4,0],"holes":[-0]}`,
		`{"record":[4,0],"holes":[99999999999999999999]}`, `{"record":[4,0],"holes":null}`,
		`{"record":[4,0]}`, `{"record":[4,0],"record":[1]}`, `{"record":[1]}`,
		"[1,2]\r\n\n  \n[3]\n{\"row\":[4]}", "\v[1]\f\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var dec rowDecoder
		if got, ok := dec.array(line); ok {
			var want []float64
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("array accepted %q, encoding/json refuses it: %v", line, err)
			}
			sameFloats(t, "array", got, want)
			checkAppenders(t, append([]float64(nil), got...))
		}
		if got, _, ok := dec.object(line, "row", false); ok {
			var want struct {
				Row []float64 `json:"row"`
			}
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("row object accepted %q, encoding/json refuses it: %v", line, err)
			}
			sameFloats(t, "row", got, want.Row)
		}
		if rec, holes, ok := dec.object(line, "record", true); ok {
			var want batchFillRow
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("fill row accepted %q, encoding/json refuses it: %v", line, err)
			}
			sameFloats(t, "record", rec, want.Record)
			if (holes == nil) != (want.Holes == nil) || len(holes) != len(want.Holes) {
				t.Fatalf("%q: holes %#v, encoding/json %#v", line, holes, want.Holes)
			}
			for i := range holes {
				if holes[i] != want.Holes[i] {
					t.Fatalf("%q: holes %v, encoding/json %v", line, holes, want.Holes)
				}
			}
		}
		if rec, _, ok := dec.object(line, "record", false); ok {
			var want batchOutlierRow
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("outlier row accepted %q, encoding/json refuses it: %v", line, err)
			}
			sameFloats(t, "record", rec, want.Record)
		}
		bits := make([]float64, len(line)/8)
		for i := range bits {
			bits[i] = math.Float64frombits(binary.LittleEndian.Uint64(line[8*i:]))
		}
		checkAppenders(t, bits)
		checkFramer(t, line)
	})
}

// sameFloats fails unless got and want hold the same bits and are nil
// together.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: decoded %#v, encoding/json %#v", what, got, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: decoded %v (%#x), encoding/json %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAppenders compares every success-line appender with json.Marshal
// on vals.
func checkAppenders(t *testing.T, vals []float64) {
	t.Helper()
	index := len(vals) * 7919
	same := func(what string, got []byte, ok bool, v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			if ok {
				t.Fatalf("%s: appended %q, json.Marshal fails: %v", what, got, err)
			}
			return
		}
		if want = append(want, '\n'); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: appended %q (ok=%v), json.Marshal %q", what, got, ok, want)
		}
	}
	prefix := []byte("x\n") // appenders extend what is already buffered
	got, ok := appendFillLine(prefix, index, vals)
	same("fill", bytes.TrimPrefix(got, prefix), ok, batchFillLine{Index: index, Filled: vals})
	for i, v := range vals {
		got, ok := appendFillLine(nil, index, vals[i:i+1])
		same("fill one", got, ok, batchFillLine{Index: index, Filled: vals[i : i+1]})
		n := int(math.Float64bits(v))
		same("ack", appendAckLine(nil, n, -n), true, ingestAck{Index: n, Count: -n})
	}
}

// checkFramer splits body with lineFramer, fed a byte at a time, and
// with the bufio.Scanner framing it replaced, and compares the lines.
func checkFramer(t *testing.T, body []byte) {
	t.Helper()
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, maxBatchLineBytes)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			want = append(want, string(line))
		}
	}
	var got []string
	fr := ndjsonRows(iotest.OneByteReader(bytes.NewReader(body)))
	for {
		line, err, more := fr.next()
		if err != nil {
			t.Fatalf("framing %q: %v", body, err)
		}
		if !more {
			break
		}
		got = append(got, string(line))
	}
	if strings.Join(got, "\x00") != strings.Join(want, "\x00") || len(got) != len(want) {
		t.Fatalf("framing %q: lines %q, bufio.Scanner %q", body, got, want)
	}
}

// TestLineFramerCap pins the 4 MiB line cap at its edges to what
// bufio.Scanner with the same cap did: a line may fill the cap with its
// '\n', an unterminated last line must stay below it, and a line over
// the cap ends the stream with one error row and no partial line.
func TestLineFramerCap(t *testing.T) {
	row := func(n int) string { return "[" + strings.Repeat(" ", n-2) + "]" }
	cases := []struct {
		label, body string
		lines       int
		tooLong     bool
	}{
		{"fills the cap", row(maxBatchLineBytes-1) + "\n[1]\n", 2, false},
		{"one over", row(maxBatchLineBytes) + "\n[1]\n", 0, true},
		{"unterminated below", "[1]\n" + row(maxBatchLineBytes-1), 2, false},
		{"unterminated at cap", "[1]\n" + row(maxBatchLineBytes), 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			sc := bufio.NewScanner(strings.NewReader(tc.body))
			sc.Buffer(make([]byte, 64<<10), maxBatchLineBytes)
			scanned := 0
			for sc.Scan() {
				scanned++
			}
			if scanned != tc.lines || errors.Is(sc.Err(), bufio.ErrTooLong) != tc.tooLong {
				t.Fatalf("bufio.Scanner: %d lines, err %v; the case expects %d, tooLong=%v",
					scanned, sc.Err(), tc.lines, tc.tooLong)
			}
			fr := ndjsonRows(strings.NewReader(tc.body))
			var lines int
			var rowErr error
			for {
				_, err, more := fr.next()
				if !more {
					break
				}
				if err != nil {
					rowErr = err
					continue
				}
				lines++
			}
			if lines != tc.lines || (rowErr != nil) != tc.tooLong {
				t.Fatalf("framer: %d lines, err %v; want %d, tooLong=%v", lines, rowErr, tc.lines, tc.tooLong)
			}
			if tc.tooLong && (!errors.Is(rowErr, errBadRow) || !strings.Contains(rowErr.Error(), bufio.ErrTooLong.Error())) {
				t.Fatalf("oversized line error %q", rowErr)
			}
		})
	}
}

// TestLineFramerReadError: a read error first yields the line it cut
// short, then one error row, as bufio.Scanner did.
func TestLineFramerReadError(t *testing.T) {
	broken := errors.New("connection reset")
	fr := ndjsonRows(io.MultiReader(strings.NewReader("[1]\n[2,"), iotest.ErrReader(broken)))
	var got []string
	for {
		line, err, more := fr.next()
		if !more {
			break
		}
		if err != nil {
			if !errors.Is(err, errBadRow) || !strings.Contains(err.Error(), broken.Error()) {
				t.Fatalf("read error row %v", err)
			}
			got = append(got, "error")
			continue
		}
		got = append(got, string(line))
	}
	if want := "[1] [2, error"; strings.Join(got, " ") != want {
		t.Fatalf("rows %q, want %q", got, want)
	}
}

// TestLineFramerBuffered: buffered is true exactly when a complete
// non-blank line is waiting, so ingest flushes before every read that
// could block on the client.
func TestLineFramerBuffered(t *testing.T) {
	pr, pw := io.Pipe()
	fr := ndjsonRows(pr)
	go func() {
		pw.Write([]byte("[1]\n[2]\n\n \r\n[3"))
	}()
	if line, _, _ := fr.next(); string(line) != "[1]" {
		t.Fatalf("first line %q", line)
	}
	if !fr.buffered() {
		t.Fatal("[2] is buffered, buffered() = false")
	}
	if line, _, _ := fr.next(); string(line) != "[2]" {
		t.Fatalf("second line %q", line)
	}
	if fr.buffered() {
		t.Fatal("only blank lines and a partial row are buffered, buffered() = true")
	}
	go func() {
		pw.Write([]byte("]\n"))
		pw.Close()
	}()
	if line, _, _ := fr.next(); string(line) != "[3]" {
		t.Fatalf("third line %q", line)
	}
	if _, _, more := fr.next(); more || !fr.buffered() {
		t.Fatalf("after the end: more=%v buffered=%v", more, fr.buffered())
	}
}

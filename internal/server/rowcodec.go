package server

// The NDJSON row codec shared by ingest and the three batch routes.
//
//   - lineFramer splits a request body into lines over one 64 KiB
//     bufio.Reader, without copying lines that fit in it, and can tell
//     whether a complete line is already buffered.
//   - rowDecoder decodes the array-shaped rows — a bare array,
//     {"row":[…]}, {"record":[…],"holes":[…]} and {"record":[…]} — and
//     declines every other line, which its caller then hands to
//     encoding/json, so encoding/json still decides what is accepted
//     and every error line. Numbers are checked against JSON's grammar
//     and then parsed by strconv.ParseFloat, as encoding/json does, so
//     the values are bit-identical.
//   - appendAckLine and appendFillLine write ingest's and batch/fill's
//     success lines byte for byte as encoding/json writes them.
//
// FuzzRowCodec holds the decoder and the appenders to encoding/json.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// lineFramer frames a request body as NDJSON lines. Not safe for
// concurrent use.
type lineFramer struct {
	br   *bufio.Reader
	long []byte // assembles a line longer than br's buffer
	err  error  // read error, reported after the line it cut short
	done bool
}

// ndjsonRows frames body as NDJSON: one JSON value per line, blank
// lines skipped.
func ndjsonRows(body io.Reader) *lineFramer {
	return &lineFramer{br: bufio.NewReaderSize(body, 64<<10)}
}

// next returns the next non-blank line with its surrounding white space
// trimmed; the line is valid until the next call. An unreadable or
// oversized line ends the stream with a final error row (there is no
// way to resync a broken byte stream); a read error first yields the
// partial line it cut short.
func (f *lineFramer) next() ([]byte, error, bool) {
	for !f.done {
		if f.err != nil {
			f.done = true
			return nil, fmt.Errorf("%w: reading line: %v", errBadRow, f.err), true
		}
		line, err := f.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			line, err = f.readLong(line)
		}
		switch {
		case err == bufio.ErrTooLong:
			f.err = err
			continue
		case err == io.EOF:
			f.done = true
		case err != nil:
			f.err = err
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			return line, nil, true
		}
	}
	return nil, nil, false
}

// readLong assembles a line that overflows the reader's buffer. A line
// is capped at maxBatchLineBytes with its '\n', and an unterminated
// last line must stay below the cap. Over the cap it answers
// bufio.ErrTooLong, which keeps the error row's text ("token too long")
// stable for clients.
func (f *lineFramer) readLong(head []byte) ([]byte, error) {
	f.long = append(f.long[:0], head...)
	for {
		frag, err := f.br.ReadSlice('\n')
		n := len(f.long) + len(frag)
		if n > maxBatchLineBytes || (n == maxBatchLineBytes && err != nil) {
			return nil, bufio.ErrTooLong
		}
		f.long = append(f.long, frag...)
		if err != bufio.ErrBufferFull {
			return f.long, err
		}
	}
}

// buffered reports whether next can return without reading the body:
// a complete non-blank line is buffered, or the stream has ended.
func (f *lineFramer) buffered() bool {
	if f.done || f.err != nil {
		return true
	}
	b, _ := f.br.Peek(f.br.Buffered())
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return false
		}
		if len(bytes.TrimSpace(b[:i])) > 0 {
			return true
		}
		b = b[i+1:]
	}
}

// rowDecoder decodes one request's array-shaped rows into scratch
// buffers it reuses from row to row, so a decoded row is valid only
// until the next call. Every method reports ok=false for a line outside
// its shape: any other key, a repeated key, a null, a non-number, a
// number outside JSON's grammar or float64's range, a hole that is not
// an integer literal, or trailing bytes. An empty array decodes to a
// non-nil empty slice, as encoding/json decodes it.
type rowDecoder struct {
	vals  []float64
	holes []int
}

// array decodes a bare JSON array of numbers.
func (d *rowDecoder) array(line []byte) ([]float64, bool) {
	s := rowScanner{b: line}
	if !numbers(&s, &d.vals, parseFloat) || !s.end() {
		return nil, false
	}
	return d.vals, true
}

// object decodes {"<key>":[numbers]} and, when withHoles is set, an
// optional "holes":[integers] in either order. holes is nil when the
// line has no "holes" key.
func (d *rowDecoder) object(line []byte, key string, withHoles bool) (vals []float64, holes []int, ok bool) {
	// A line with more keys than the shape allows (or a string value)
	// has more quotes: decline it before parsing a number.
	if q := bytes.Count(line, []byte{'"'}); q != 2 && !(withHoles && q == 4) {
		return nil, nil, false
	}
	s := rowScanner{b: line}
	if !s.skip('{') {
		return nil, nil, false
	}
	var sawVals, sawHoles bool
	for {
		k, isKey := s.key()
		switch {
		case !isKey:
			return nil, nil, false
		case string(k) == key && !sawVals:
			sawVals = true
			if !numbers(&s, &d.vals, parseFloat) {
				return nil, nil, false
			}
		case withHoles && string(k) == "holes" && !sawHoles:
			sawHoles = true
			if !numbers(&s, &d.holes, parseInt) {
				return nil, nil, false
			}
		default:
			return nil, nil, false
		}
		if s.skip('}') {
			break
		}
		if !s.skip(',') {
			return nil, nil, false
		}
	}
	if !sawVals || !s.end() {
		return nil, nil, false
	}
	if sawHoles {
		holes = d.holes
	}
	return d.vals, holes, true
}

// rowScanner is a cursor over one line of JSON.
type rowScanner struct {
	b []byte
	i int
}

// space skips JSON white space.
func (s *rowScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// skip consumes c after optional white space, reporting whether it was
// there.
func (s *rowScanner) skip(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only white space is left.
func (s *rowScanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// key consumes an object key and its colon. It declines keys with
// escapes or non-ASCII bytes, which encoding/json may fold onto a field
// name.
func (s *rowScanner) key() ([]byte, bool) {
	if !s.skip('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			k := s.b[start:s.i]
			s.i++
			return k, s.skip(':')
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number consumes one literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, after optional white
// space.
func (s *rowScanner) number() ([]byte, bool) {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i < 0 {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			return nil, false
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// digits returns the end of the run of decimal digits at b[i:], or -1
// when there is none.
func digits(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// numbers decodes a JSON array of number literals into *buf with parse,
// reusing its storage even when the array is declined part way.
func numbers[T any](s *rowScanner, buf *[]T, parse func(lit []byte) (T, error)) bool {
	if !s.skip('[') {
		return false
	}
	if *buf = (*buf)[:0]; *buf == nil {
		*buf = []T{}
	}
	if s.skip(']') {
		return true
	}
	for {
		lit, ok := s.number()
		if !ok {
			return false
		}
		v, err := parse(lit)
		if err != nil {
			return false
		}
		*buf = append(*buf, v)
		if s.skip(']') {
			return true
		}
		if !s.skip(',') {
			return false
		}
	}
}

func parseFloat(lit []byte) (float64, error) { return strconv.ParseFloat(string(lit), 64) }

// parseInt refuses a fraction or an exponent, as encoding/json does for
// an int.
func parseInt(lit []byte) (int, error) {
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(v), err
}

// appendFloat appends f as encoding/json writes a float64: 'f' format,
// switching to 'e' below 1e-6 and from 1e21 up, with e-07 trimmed to
// e-7. ok is false for NaN and ±Inf, which JSON cannot carry.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendIndex opens a result line: {"index":i,"<key>":
func appendIndex(b []byte, index int, key string) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(index), 10)
	b = append(b, ',', '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// appendAckLine appends ingest's success line {"index":i,"count":n}.
func appendAckLine(b []byte, index, count int) []byte {
	b = strconv.AppendInt(appendIndex(b, index, "count"), int64(count), 10)
	return append(b, '}', '\n')
}

// appendFillLine appends batch/fill's success line
// {"index":i,"filled":[…]}; ok is false when a value is NaN or ±Inf.
func appendFillLine(b []byte, index int, filled []float64) ([]byte, bool) {
	b = appendIndex(b, index, "filled")
	if filled == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range filled {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendFloat(b, v); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), true
}

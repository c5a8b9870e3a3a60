// Package cluster scales live ingest past one process: a coordinator
// fronts the public NDJSON ingest API, hash-shards rows across worker
// nodes in fixed binary chunks, periodically pulls each worker's
// StreamMiner shard, and merges them into the one model that goes
// through the eigensolve + GE gate + store publish — so shard-then-merge
// mining stays exact (StreamMiner.Merge sums sufficient statistics) and
// every single-node guarantee from the online manager applies unchanged
// to the merged model.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// The row fan-out speaks a fixed little-endian binary framing rather
// than NDJSON: the coordinator already parsed and validated the public
// JSON stream, so re-encoding rows as text for the worker hop would
// dominate the per-row budget. A v1 chunk is
//
//	magic "RRC1" | width u32 | rows u32 | seq u64 | decay f64 |
//	rows·width float64 payload | crc32c u32
//
// A v2 chunk carries the coordinator's trace context between the fixed
// header and the payload, so worker-side fold spans parent onto the
// fan-out trace:
//
//	magic "RRC2" | width u32 | rows u32 | seq u64 | decay f64 |
//	ctxLen u16 | ctx (W3C traceparent, ctxLen bytes) |
//	rows·width float64 payload | crc32c u32
//
// Decoders accept both magics, and encoders emit v1 whenever there is
// no trace context, so mixed-version fleets interoperate: an old worker
// only ever sees v2 frames if the coordinator traced the session, and a
// new worker folds v1 frames exactly as before.
//
// Each chunk is acknowledged by a fixed 32-byte frame
//
//	magic "RRA1" | seq u64 | rows u32 | code u32 | shardRows u64 | crc32c u32
//
// All CRCs are Castagnoli over every byte before the checksum, the
// same polynomial the store WAL uses.

const (
	chunkMagic  = uint32('R')<<24 | uint32('R')<<16 | uint32('C')<<8 | uint32('1')
	chunkMagic2 = uint32('R')<<24 | uint32('R')<<16 | uint32('C')<<8 | uint32('2')
	ackMagic    = uint32('R')<<24 | uint32('R')<<16 | uint32('A')<<8 | uint32('1')

	chunkHeaderLen = 4 + 4 + 4 + 8 + 8
	ackFrameLen    = 4 + 8 + 4 + 4 + 8 + 4

	// MaxChunkTrace bounds the v2 trace-context field; a W3C
	// traceparent is 55 bytes, the slack tolerates future vendor
	// suffixes without letting a corrupt length field allocate much.
	MaxChunkTrace = 128

	// MaxChunkRows bounds the rows of a single wire chunk.
	MaxChunkRows = 65536
	// MaxWireWidth bounds the row width a worker will accept.
	MaxWireWidth = 4096
	// MaxChunkCells bounds rows × width of a single chunk, so its
	// payload is at most 8 MiB however it is filled: a reader refuses a
	// larger claim before allocating anything for it, and the
	// coordinator cuts chunks at min(ChunkRows, MaxChunkCells/width)
	// rows.
	MaxChunkCells = 1 << 20
)

// Ack codes. Anything non-zero aborts the session: the shard cannot
// fold the chunk, and retrying it on the same worker cannot help.
const (
	AckOK            = 0
	AckWidthConflict = 1
	AckDecayConflict = 2
	AckBadChunk      = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame covers every framing violation: wrong magic, absurd
// dimensions, or a checksum mismatch.
var ErrBadFrame = errors.New("cluster: bad wire frame")

// Chunk is one decoded fan-out frame.
type Chunk struct {
	Seq   uint64
	Width int
	Decay float64
	// Trace is the coordinator's W3C traceparent ("" on v1 frames and
	// untraced sessions): the remote parent a worker's cluster.fold
	// span continues, making one trace ID span the process boundary.
	Trace string
	// Rows is the row-major payload, len = n·Width.
	Rows []float64
}

// Ack is one decoded acknowledgement frame.
type Ack struct {
	Seq       uint64
	Rows      int
	Code      uint32
	ShardRows uint64
}

// hostLittle reports whether the host stores floats little-endian, in
// which case payloads move by aliasing the float slice as bytes instead
// of value-by-value conversion.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatsAsBytes aliases the float64 slice as its raw bytes. Only valid
// on little-endian hosts for wire purposes.
func floatsAsBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*8)
}

// AppendChunk encodes one v1 (context-free) chunk frame onto dst and
// returns the extended slice. The payload must be n·width long with
// n <= MaxChunkRows and n·width <= MaxChunkCells.
func AppendChunk(dst []byte, seq uint64, width int, decay float64, payload []float64) []byte {
	return AppendChunkTrace(dst, seq, width, decay, "", payload)
}

// AppendChunkTrace encodes one chunk frame onto dst, stamping the
// sender's traceparent into a v2 frame when non-empty and falling back
// to the v1 framing when empty — so untraced sessions stay
// byte-identical with older senders. An oversized traceparent is
// dropped rather than producing an undecodable frame.
func AppendChunkTrace(dst []byte, seq uint64, width int, decay float64, traceparent string, payload []float64) []byte {
	if len(traceparent) > MaxChunkTrace {
		traceparent = ""
	}
	start := len(dst)
	var hdr [chunkHeaderLen]byte
	magic := uint32(chunkMagic)
	if traceparent != "" {
		magic = chunkMagic2
	}
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(width))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)/width))
	binary.LittleEndian.PutUint64(hdr[12:], seq)
	binary.LittleEndian.PutUint64(hdr[20:], math.Float64bits(decay))
	dst = append(dst, hdr[:]...)
	if traceparent != "" {
		var n [2]byte
		binary.LittleEndian.PutUint16(n[:], uint16(len(traceparent)))
		dst = append(dst, n[:]...)
		dst = append(dst, traceparent...)
	}
	if hostLittle {
		dst = append(dst, floatsAsBytes(payload)...)
	} else {
		var cell [8]byte
		for _, v := range payload {
			binary.LittleEndian.PutUint64(cell[:], math.Float64bits(v))
			dst = append(dst, cell[:]...)
		}
	}
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// ReadChunk decodes the next chunk frame from r, accepting both the v1
// and the trace-carrying v2 framing. The payload lands in a fresh
// []float64 whose backing bytes are filled directly from the stream on
// little-endian hosts (no intermediate buffer). io.EOF is returned
// untouched when the stream ends cleanly between frames.
func ReadChunk(r io.Reader) (Chunk, error) {
	var hdr [chunkHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Chunk{}, err // io.EOF: clean end between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Chunk{}, fmt.Errorf("cluster: truncated chunk header: %w", ErrBadFrame)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	if magic != chunkMagic && magic != chunkMagic2 {
		return Chunk{}, fmt.Errorf("cluster: chunk magic %x: %w", hdr[:4], ErrBadFrame)
	}
	width := int(binary.LittleEndian.Uint32(hdr[4:]))
	rows := int(binary.LittleEndian.Uint32(hdr[8:]))
	if width <= 0 || width > MaxWireWidth || rows < 0 || rows > MaxChunkRows || rows*width > MaxChunkCells {
		return Chunk{}, fmt.Errorf("cluster: chunk dims %d x %d: %w", rows, width, ErrBadFrame)
	}
	c := Chunk{
		Seq:   binary.LittleEndian.Uint64(hdr[12:]),
		Width: width,
		Decay: math.Float64frombits(binary.LittleEndian.Uint64(hdr[20:])),
		Rows:  make([]float64, rows*width),
	}
	crc := crc32.Checksum(hdr[:], castagnoli)
	if magic == chunkMagic2 {
		var n [2]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return Chunk{}, fmt.Errorf("cluster: truncated chunk trace length: %w", ErrBadFrame)
		}
		ctxLen := int(binary.LittleEndian.Uint16(n[:]))
		if ctxLen == 0 || ctxLen > MaxChunkTrace {
			return Chunk{}, fmt.Errorf("cluster: chunk trace length %d: %w", ctxLen, ErrBadFrame)
		}
		ctx := make([]byte, ctxLen)
		if _, err := io.ReadFull(r, ctx); err != nil {
			return Chunk{}, fmt.Errorf("cluster: truncated chunk trace: %w", ErrBadFrame)
		}
		crc = crc32.Update(crc, castagnoli, n[:])
		crc = crc32.Update(crc, castagnoli, ctx)
		c.Trace = string(ctx)
	}
	if hostLittle {
		buf := floatsAsBytes(c.Rows)
		if _, err := io.ReadFull(r, buf); err != nil {
			return Chunk{}, fmt.Errorf("cluster: truncated chunk payload: %w", ErrBadFrame)
		}
		crc = crc32.Update(crc, castagnoli, buf)
	} else {
		buf := make([]byte, rows*width*8)
		if _, err := io.ReadFull(r, buf); err != nil {
			return Chunk{}, fmt.Errorf("cluster: truncated chunk payload: %w", ErrBadFrame)
		}
		for i := range c.Rows {
			c.Rows[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		crc = crc32.Update(crc, castagnoli, buf)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return Chunk{}, fmt.Errorf("cluster: truncated chunk checksum: %w", ErrBadFrame)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return Chunk{}, fmt.Errorf("cluster: chunk crc %08x, want %08x: %w", got, crc, ErrBadFrame)
	}
	return c, nil
}

// AppendAck encodes one ack frame onto dst.
func AppendAck(dst []byte, a Ack) []byte {
	start := len(dst)
	var b [ackFrameLen - 4]byte
	binary.LittleEndian.PutUint32(b[0:], ackMagic)
	binary.LittleEndian.PutUint64(b[4:], a.Seq)
	binary.LittleEndian.PutUint32(b[12:], uint32(a.Rows))
	binary.LittleEndian.PutUint32(b[16:], a.Code)
	binary.LittleEndian.PutUint64(b[20:], a.ShardRows)
	dst = append(dst, b[:]...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// ReadAck decodes the next ack frame. io.EOF passes through untouched
// when the stream ends cleanly between frames.
func ReadAck(r io.Reader) (Ack, error) {
	var b [ackFrameLen]byte
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return Ack{}, err
	}
	if _, err := io.ReadFull(r, b[1:]); err != nil {
		return Ack{}, fmt.Errorf("cluster: truncated ack: %w", ErrBadFrame)
	}
	if binary.LittleEndian.Uint32(b[0:]) != ackMagic {
		return Ack{}, fmt.Errorf("cluster: ack magic %x: %w", b[:4], ErrBadFrame)
	}
	crc := crc32.Checksum(b[:ackFrameLen-4], castagnoli)
	if got := binary.LittleEndian.Uint32(b[ackFrameLen-4:]); got != crc {
		return Ack{}, fmt.Errorf("cluster: ack crc %08x, want %08x: %w", got, crc, ErrBadFrame)
	}
	return Ack{
		Seq:       binary.LittleEndian.Uint64(b[4:]),
		Rows:      int(binary.LittleEndian.Uint32(b[12:])),
		Code:      binary.LittleEndian.Uint32(b[16:]),
		ShardRows: binary.LittleEndian.Uint64(b[20:]),
	}, nil
}

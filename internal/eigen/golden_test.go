//go:build amd64 && !amd64.v3

// The pin below holds only where Go evaluates x*y + z as a rounded
// product followed by a rounded sum. On arm64, ppc64le, s390x and
// riscv64, and on amd64 built with GOAMD64=v3 or higher, the compiler
// may fuse such expressions into one FMA instruction, which changes the
// low bits of the results without making them any less accurate. Hence
// the build constraint: baseline amd64 only.

package eigen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"ratiorules/internal/matrix"
)

// Golden hashes of goldenCorpus: the inputs, and every eigenvalue and
// eigenvector cell that SymEig returns for them. SymEig's part was
// recorded before tred2 and tql2 moved from Dense.At/Set onto raw
// slices; any change to the solver's floating-point operations or
// their order moves goldenOutputHash. goldenInputHash only moves when
// the corpus itself changes (a new Quest generator, say), in which case
// both constants must be re-recorded from a commit whose solver is
// trusted.
const (
	goldenInputHash  = "bfa426c330fd110348054fd3669290c7c01210742e96c7e6ad0ef9a4f9e8aa44"
	goldenOutputHash = "a722c6eba85032d6480ae8a1c40be8d3a946248b62988625af92ff397cdf703c"
)

// goldenCorpus returns the pinned matrices: random PSD and random
// indefinite matrices for every n from 1 to 100, Hilbert 12, Wilkinson
// 21, the identity, the zero matrix, and the centred scatter of 20,000
// Quest rows (M=100, the paper's scale-up setting).
func goldenCorpus(t *testing.T) []*matrix.Dense {
	t.Helper()
	rng := rand.New(rand.NewSource(2024))
	var corpus []*matrix.Dense
	for n := 1; n <= 100; n++ {
		corpus = append(corpus, randomPSD(rng, n), randomSymmetric(rng, n))
	}
	corpus = append(corpus, hilbert(12), wilkinson(21), matrix.Identity(10), matrix.NewDense(10, 10))
	return append(corpus, questScatter(t))
}

func hashFloats(h hash.Hash, xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

func hashSystem(h hash.Hash, sys *System) {
	hashFloats(h, sys.Values)
	hashFloats(h, sys.Vectors.RawData())
}

// TestGoldenBitIdentical pins SymEig bit for bit: the solver may be
// restructured for speed, but it must keep every floating-point
// operation in the same order.
func TestGoldenBitIdentical(t *testing.T) {
	corpus := goldenCorpus(t)
	in, out := sha256.New(), sha256.New()
	for _, a := range corpus {
		hashFloats(in, a.RawData())
		sys, err := SymEig(a)
		if err != nil {
			t.Fatalf("SymEig of %d×%d: %v", a.Rows(), a.Rows(), err)
		}
		hashSystem(out, sys)
	}

	if got := hex.EncodeToString(in.Sum(nil)); got != goldenInputHash {
		t.Fatalf("corpus hash = %s, want %s: the inputs changed, not the solver; re-record both constants", got, goldenInputHash)
	}
	if got := hex.EncodeToString(out.Sum(nil)); got != goldenOutputHash {
		t.Errorf("output hash = %s, want %s: an eigenvalue or eigenvector cell changed", got, goldenOutputHash)
	}
}

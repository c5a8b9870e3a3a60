//go:build amd64

package stats

// The batched covariance fold and the all-finite scan have AVX2/FMA
// bodies on amd64 (crossaccum_amd64.s); both fall back to the portable
// Go loops when the CPU (or the OS's saved-register state) predates
// AVX2. Feature detection runs once at init through raw CPUID/XGETBV —
// the stdlib does not export its internal/cpu flags and this package
// takes no third-party dependencies.

// useAVX2 gates the assembly kernels: AVX2 + FMA present and the OS
// saves the full YMM state across context switches.
var useAVX2 = cpuHasAVX2FMA()

// crossAccumAVX folds n rows (flat, row-major, width m) into the upper
// triangle of cross (m×m row-major) with fused multiply-adds.
//
//go:noescape
func crossAccumAVX(cross *float64, flat *float64, n, m int)

// allFiniteAVX reports whether every value is finite, vectorizing the
// v·0 ≠ 0 NaN/Inf test.
//
//go:noescape
func allFiniteAVX(flat *float64, n int) bool

// cpuidRaw executes CPUID for (leaf, subleaf).
func cpuidRaw(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() uint64

// cpuHasAVX2FMA checks FMA (leaf 1 ECX bit 12), OSXSAVE (leaf 1 ECX bit
// 27), AVX2 (leaf 7 EBX bit 5) and that XCR0 shows the OS saving both
// XMM and YMM state (bits 1 and 2).
func cpuHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidRaw(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const fma, osxsave = 1 << 12, 1 << 27
	if ecx1&fma == 0 || ecx1&osxsave == 0 {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx2 = 1 << 5
	if ebx7&avx2 == 0 {
		return false
	}
	const ymmState = 0x6 // XMM + YMM saved by the OS
	return xgetbv0()&ymmState == ymmState
}

// crossAccum dispatches the batched upper-triangle rank-1 update.
func crossAccum(cross, flat []float64, n, m int) {
	if !useAVX2 || n == 0 || m == 0 {
		crossAccumGo(cross, flat, n, m)
		return
	}
	crossAccumAVX(&cross[0], &flat[0], n, m)
}

// AllFinite reports whether every value is finite (no NaN or ±Inf): the
// check every push applies, vectorized, so a caller can pre-validate rows
// once and fold them later without re-checking.
func AllFinite(flat []float64) bool {
	if !useAVX2 || len(flat) == 0 {
		return allFiniteGo(flat)
	}
	return allFiniteAVX(&flat[0], len(flat))
}

//go:build !amd64

package stats

// Non-amd64 builds fold blocks through the portable loops; the AVX2
// kernels in crossaccum_amd64.s are the only architecture-specific
// bodies.

func crossAccum(cross, flat []float64, n, m int) { crossAccumGo(cross, flat, n, m) }

// AllFinite reports whether every value is finite (no NaN or ±Inf).
func AllFinite(flat []float64) bool { return allFiniteGo(flat) }

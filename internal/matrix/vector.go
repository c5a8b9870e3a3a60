package matrix

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: Dot of vectors with lengths %d and %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x, guarding against overflow by
// scaling with the largest magnitude component.
func Norm2(x []float64) float64 {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := v / mx
		s += r * r
	}
	return mx * math.Sqrt(s)
}

// AxpyInto computes dst = a·x + y element-wise. All slices must share a
// length; dst may alias x or y.
func AxpyInto(dst []float64, a float64, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic(fmt.Sprintf("matrix: AxpyInto lengths %d, %d, %d", len(dst), len(x), len(y)))
	}
	for i := range dst {
		dst[i] = a*x[i] + y[i]
	}
}

// AddVec returns x+y as a new slice. It panics if the lengths differ.
func AddVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: AddVec of vectors with lengths %d and %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i := range out {
		out[i] = x[i] + y[i]
	}
	return out
}

// SubVec returns x−y as a new slice. It panics if the lengths differ.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: SubVec of vectors with lengths %d and %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i := range out {
		out[i] = x[i] - y[i]
	}
	return out
}

// Normalize scales x in place to unit Euclidean norm and returns the
// original norm. A zero vector is left untouched and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	for i := range x {
		x[i] /= n
	}
	return n
}

// EqualApproxVec reports whether x and y have the same length and every
// component differs by at most tol.
func EqualApproxVec(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}

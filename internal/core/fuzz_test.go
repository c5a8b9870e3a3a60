package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// FuzzFillRow checks that hole filling never panics, never corrupts known
// cells, always returns finite values and agrees with the SVD reference,
// for arbitrary records and hole sets against a fixed mined rule set.
func FuzzFillRow(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	x := planeData(rng, 150, 5, 2)
	miner, err := NewMiner()
	if err != nil {
		f.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, uint8(0b00001))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, uint8(0b11111))
	f.Add(-1e9, 1e9, 0.5, -0.5, 42.0, uint8(0b01010))
	f.Add(1e-300, -1e-300, 1e300, 0.0, 1.0, uint8(0b10000))

	f.Fuzz(func(t *testing.T, a, b, c, d, e float64, mask uint8) {
		row := []float64{a, b, c, d, e}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // holes are the only sanctioned non-finite input
			}
		}
		var holes []int
		for j := 0; j < 5; j++ {
			if mask&(1<<j) != 0 {
				holes = append(holes, j)
			}
		}
		out, err := rules.FillRow(row, holes)
		if err != nil {
			t.Fatalf("FillRow(%v, %v): %v", row, holes, err)
		}
		isHole := map[int]bool{}
		for _, j := range holes {
			isHole[j] = true
		}
		for j, v := range out {
			if isHole[j] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("filled cell %d = %v for row %v holes %v", j, v, row, holes)
				}
				continue
			}
			if v != row[j] {
				t.Fatalf("known cell %d changed: %v -> %v", j, row[j], v)
			}
		}
		want := svdRef(t, rules, row, holes)
		var scale float64
		for j := range row {
			scale = math.Max(scale, math.Max(math.Abs(row[j]), math.Abs(want[j])))
		}
		for j := range want {
			if math.Abs(out[j]-want[j]) > 1e-9*math.Max(scale, 1) {
				t.Fatalf("cell %d: closed form %v, SVD %v (row %v holes %v)", j, out[j], want[j], row, holes)
			}
		}
	})
}

// FuzzWhatIf checks the scenario API never panics and respects givens.
func FuzzWhatIf(f *testing.F) {
	rng := rand.New(rand.NewSource(98))
	x := planeData(rng, 100, 4, 2)
	miner, err := NewMiner()
	if err != nil {
		f.Fatal(err)
	}
	rules, err := miner.MineMatrix(x)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, 10.0)
	f.Add(3, -5.0)
	f.Add(7, 0.0)
	f.Fuzz(func(t *testing.T, attr int, value float64) {
		if math.IsNaN(value) || math.IsInf(value, 0) {
			return
		}
		out, err := rules.WhatIf(Scenario{Given: map[int]float64{attr: value}})
		if attr < 0 || attr >= 4 {
			if err == nil {
				t.Fatalf("out-of-range attr %d accepted", attr)
			}
			return
		}
		if err != nil {
			t.Fatalf("WhatIf(%d=%v): %v", attr, value, err)
		}
		if out[attr] != value {
			t.Fatalf("given attr changed: %v -> %v", value, out[attr])
		}
	})
}

// FuzzLoadRules checks that Load never panics and that every rule set it
// accepts is one JSON object followed by nothing but white space, keeps
// the invariants the solves assume (VᵗV = I to within orthoTol; finite,
// non-negative, descending eigenvalues), re-saves byte-identically, and
// fills a fixed finite row with finite values.
func FuzzLoadRules(f *testing.F) {
	miner, err := NewMiner()
	if err != nil {
		f.Fatal(err)
	}
	mined, err := miner.MineMatrix(planeData(rand.New(rand.NewSource(97)), 60, 4, 2))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mined.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"means":[0,0,0],"eigenvalues":[1],"total_variance":1,"trained_rows":10,"vectors":[[0.5],[0.5],[0.5]]}`))
	f.Add([]byte(`{"means":[0,0],"eigenvalues":[1,2],"vectors":[[1,0],[0,1]]}`))
	f.Add([]byte(`{"means":[1,2],"eigenvalues":[3],"vectors":[[1],[0]],"residual_std":[0,1]}`))
	f.Add([]byte(`{"means":[],"eigenvalues":[],"vectors":[]}`))
	f.Add(append(append([]byte(nil), buf.Bytes()...), buf.Bytes()...))
	f.Add([]byte(`{"means":[0],"eigenvalues":[],"vectors":[[]]} x`))
	f.Add([]byte(`{"means":[0],"eigenvalues":[],"vectors":[[]]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		var doc json.RawMessage
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("accepted input that is no JSON value: %v", err)
		}
		if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("accepted %q after the rule set", rest)
		}
		m, k := r.M(), r.K()
		for i, l := range r.eigenvalues {
			if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 || i > 0 && l > r.eigenvalues[i-1] {
				t.Fatalf("accepted eigenvalues %v", r.eigenvalues)
			}
		}
		for c := 0; c < k; c++ {
			for d := 0; d < k; d++ {
				var s float64
				for j := 0; j < m; j++ {
					s += r.v.At(j, c) * r.v.At(j, d)
				}
				if c == d {
					s--
				}
				if !(math.Abs(s) <= orthoTol) {
					t.Fatalf("accepted VᵗV − I = %v at (%d,%d)", s, c, d)
				}
			}
		}
		var once, twice bytes.Buffer
		if err := r.Save(&once); err != nil {
			t.Fatal(err)
		}
		back, err := Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-loading a saved model: %v", err)
		}
		if err := back.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-save differs:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
		// Means beyond 1e200 leave the centred row's dot products no
		// headroom below the float range; that is overflow, not a defect
		// of the model or the solve.
		for _, mu := range r.means {
			if math.Abs(mu) > 1e200 {
				return
			}
		}
		row := make([]float64, m)
		for j := range row {
			row[j] = float64(j%7) - 3
		}
		for _, holes := range [][]int{{0}, seq(0, m/2), seq(0, m)} {
			if m == 0 {
				break
			}
			out, err := r.FillRow(row, holes)
			if err != nil {
				t.Fatalf("FillRow(%v): %v", holes, err)
			}
			for j, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("FillRow(%v) cell %d = %v", holes, j, v)
				}
			}
		}
	})
}

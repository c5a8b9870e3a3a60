package core

import (
	"fmt"
	"sort"
)

// Scenario is a partial record for what-if analysis: the caller pins some
// attributes to hypothetical values and the rules forecast the rest
// (Sec. 3: "We expect the demand for Cheerios to double; how much milk
// should we stock up on?").
type Scenario struct {
	// Given maps attribute index to its hypothesized value.
	Given map[int]float64
}

// WhatIf forecasts the full record implied by a scenario. Attributes not
// present in Given are treated as holes and reconstructed with FillRow;
// with fewer givens than rules the under-specified case applies and only
// the strongest rules drive the forecast — pinning one attribute moves the
// prediction along RR1, which is the paper's Cheerios-doubling intuition.
func (r *Rules) WhatIf(s Scenario) ([]float64, error) {
	out, err := r.whatIf(s)
	whatIfOps.count(err)
	return out, err
}

// whatIf is the uncounted body of WhatIf, shared with Forecast so each
// public operation books exactly one rr_ops_total sample.
func (r *Rules) whatIf(s Scenario) ([]float64, error) {
	row, holes, err := r.scenarioRow(s)
	if err != nil {
		return nil, err
	}
	return r.fill(row, holes)
}

// scenarioRow validates a what-if scenario and expands it into the
// (row, holes) form fill consumes.
func (r *Rules) scenarioRow(s Scenario) ([]float64, []int, error) {
	m := r.M()
	if len(s.Given) == 0 {
		return nil, nil, fmt.Errorf("core: what-if scenario with no given attributes: %w", ErrBadHole)
	}
	row := make([]float64, m)
	holes := make([]int, 0, m)
	for j := 0; j < m; j++ {
		v, ok := s.Given[j]
		if !ok {
			holes = append(holes, j)
			continue
		}
		row[j] = v
	}
	if len(holes) == m {
		// All given keys were out of range.
		keys := make([]int, 0, len(s.Given))
		for k := range s.Given {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		return nil, nil, fmt.Errorf("core: what-if given attributes %v out of range [0,%d): %w",
			keys, m, ErrBadHole)
	}
	for j := range s.Given {
		if j < 0 || j >= m {
			return nil, nil, fmt.Errorf("core: what-if given attribute %d out of range [0,%d): %w",
				j, m, ErrBadHole)
		}
	}
	return row, holes, nil
}

// Forecast answers the paper's forecasting question ("if a customer spends
// $1 on bread and $2.50 on ham, how much on mayonnaise?"): given the known
// attribute values, it returns the predicted value of the target attribute.
func (r *Rules) Forecast(known map[int]float64, target int) (float64, error) {
	v, err := r.forecast(known, target)
	forecastOps.count(err)
	return v, err
}

func (r *Rules) forecast(known map[int]float64, target int) (float64, error) {
	if target < 0 || target >= r.M() {
		return 0, fmt.Errorf("core: forecast target %d out of range [0,%d): %w",
			target, r.M(), ErrBadHole)
	}
	if _, ok := known[target]; ok {
		return 0, fmt.Errorf("core: forecast target %d is already given: %w", target, ErrBadHole)
	}
	full, err := r.whatIf(Scenario{Given: known})
	if err != nil {
		return 0, err
	}
	return full[target], nil
}

package main

import (
	"fmt"
	"math"
)

// Output checks. Each returns nil when the output is right and an error
// naming the first difference otherwise.

// checkGrid requires got to be bitwise equal to want, cell by cell: the
// DF jacobi and matmul programs evaluate every cell in the same order as
// their sequential references, so any difference is a defect.
func checkGrid(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("grid has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("grid row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("grid cell (%d,%d) = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// areaTolerance is the relative tolerance for quadrature: stealing makes
// the summation order nondeterministic, so the area matches the
// reference only to rounding.
const areaTolerance = 1e-9

func checkArea(got, want float64) error {
	if !(math.Abs(got-want) <= areaTolerance*math.Abs(want)) {
		return fmt.Errorf("area %.15g, want %.15g within %g relative", got, want, areaTolerance)
	}
	return nil
}

// checkBarrier verifies a barrier storm on p nodes: every node saw the
// Sum of rt.ID()+1, which is p(p+1)/2, and completed exactly k barriers
// before that reduction.
func checkBarrier(sums []float64, barriers []int64, p, k int) error {
	want := float64(p * (p + 1) / 2)
	for i := 0; i < p; i++ {
		if sums[i] != want {
			return fmt.Errorf("node %d: Sum = %v, want %v", i, sums[i], want)
		}
		if barriers[i] != int64(k) {
			return fmt.Errorf("node %d: %d barriers completed, want %d", i, barriers[i], k)
		}
	}
	return nil
}

// checkQuiet requires that no request outlived its run.
func checkQuiet(outstanding int) error {
	if outstanding != 0 {
		return fmt.Errorf("%d requests outstanding after the run", outstanding)
	}
	return nil
}

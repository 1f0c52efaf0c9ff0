package main

import (
	"math"
	"sort"
	"strconv"
)

// summary is a sample's median, quartiles and size.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// quantile returns the p-quantile (0 < p < 1) of sorted by the same
// "exclusive" rule as Python's statistics.quantiles: rank p·(n+1),
// clamped to the sample, interpolated linearly between neighbours.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n+1)
	switch {
	case h <= 1:
		return sorted[0]
	case h >= float64(n):
		return sorted[n-1]
	}
	j := int(h)
	frac := h - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// tailLadder lists the percentiles a timing may be reported at, in
// tenths of a percent.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it, or 0 when even the median
// lacks them. Integer arithmetic keeps the boundary exact: 100 samples
// support p90 (ten beyond), 99 do not.
func tailPercentile(n int) float64 {
	best := 0
	for _, p := range tailLadder {
		atOrBelow := (n*p + 999) / 1000
		if n-atOrBelow >= 10 {
			best = p
		}
	}
	return float64(best) / 10
}

// tailSupport describes whether a percentile is supported by n samples,
// for the report printed next to a tail latency.
func tailSupport(p float64, n int) string {
	if top := tailPercentile(n); top < p {
		if top == 0 {
			return "unsupported: fewer than 20 samples"
		}
		return "unsupported: highest supported is p" + strconv.FormatFloat(top, 'f', -1, 64)
	}
	return "supported"
}

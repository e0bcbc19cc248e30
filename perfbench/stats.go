package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave
// beyond it; a p99 therefore needs at least 1000 samples.
const minBeyond = 10

// failed marks a sample that missed every latency limit: a passage that
// failed, was refused, or was never sent before its window closed.
const failed = math.MaxInt64

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, which
// it sorts in place. It errs when fewer than minBeyond samples lie beyond
// the rank, so no reported tail rests on a handful of samples.
func percentile(xs []int64, p float64) (int64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want >= %d", p*100, n, n-rank, minBeyond)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[rank-1], nil
}

// median returns the median of xs (mean of the middle pair for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// p50 is the median of int64 samples without a beyond-count requirement,
// for per-layer self times where the median is all that is reported.
func p50(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return float64(xs[(len(xs)-1)/2])
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

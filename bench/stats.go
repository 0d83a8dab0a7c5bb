package main

import (
	"math"
	"slices"
)

// quantile returns the q-th quantile (0..1) of sorted by linear
// interpolation between the two nearest ranks (the "inclusive" method:
// position q*(n-1)), so a two-value set has its median halfway between
// them. Zero for an empty set.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is what every reported number carries: the median the
// metric is, the quartiles that say how much its samples disagreed,
// and how many samples there were.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize sorts a copy of vs and takes its median and quartiles.
func summarize(vs []float64) summary {
	s := slices.Clone(vs)
	slices.Sort(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure the benchmark's bounds are set against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// nsQuantile returns the q-th quantile of raw nanosecond samples by
// nearest rank (ceil(q*n), the sample a q share of ops finished
// within). sorted must be ascending. Zero for an empty set.
func nsQuantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// cv is the coefficient of variation (population standard deviation
// over mean) of vs: the run's own noise gauge over window throughputs.
func cv(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	if mean == 0 {
		return 0
	}
	var sq float64
	for _, v := range vs {
		sq += (v - mean) * (v - mean)
	}
	return math.Sqrt(sq/float64(len(vs))) / mean
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile's rank
// before the percentile is reported: with fewer, the "tail" is a
// handful of samples and moves with every run.
const minBeyond = 10

// pct is one reportable percentile of a sample.
type pct struct {
	P float64
	V float64
}

// summary describes a sample by its size, its median, and the requested
// percentiles above the median that have at least minBeyond samples
// beyond their rank. Percentiles the sample cannot support are omitted,
// never extrapolated.
type summary struct {
	N      int
	Median float64
	Pcts   []pct
}

// rank is the nearest-rank index of the p-th percentile in a sorted
// sample of n values: sorted[⌈p/100·n⌉−1].
func rank(n int, p float64) int {
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// summarize sorts a copy of samples and reports the median plus every
// requested percentile that has at least minBeyond samples beyond it.
func summarize(samples []float64, ps ...float64) summary {
	s := summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Median = sorted[rank(s.N, 50)]
	for _, p := range ps {
		idx := rank(s.N, p)
		if s.N-1-idx >= minBeyond {
			s.Pcts = append(s.Pcts, pct{P: p, V: sorted[idx]})
		}
	}
	return s
}

// at returns the p-th percentile when the sample supports it.
func (s summary) at(p float64) (float64, bool) {
	for _, q := range s.Pcts {
		if q.P == p {
			return q.V, true
		}
	}
	return 0, false
}

// median is the nearest-rank median of samples (0 for none).
func median(samples []float64) float64 {
	return summarize(samples).Median
}

// mean is the arithmetic mean of samples (0 for none).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"math/bits"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns Q1, median and Q3 of xs by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), so spreads printed here
// match the ones a Python checker computes from the same values. With
// fewer than two samples all three are the single value (or 0). xs is
// sorted in place.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	sort.Float64s(xs)
	cut := func(i int) float64 {
		m := i * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// perOp divides a counter delta by the operations that produced it,
// returning 0 when no operation completed (a rate over nothing is not
// a measurement; callers that need one fail the run instead).
func perOp(delta float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return delta / float64(ops)
}

// frac returns part/whole, or 0 when whole is 0.
func frac(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// histSub sets latHist's resolution: 2^histSub buckets per power of two.
const histSub = 6

// histBuckets covers durations up to 2^40 ns (about 18 minutes); longer
// ones land in the last bucket.
const histBuckets = (40 - histSub + 1) << histSub

// latHist is a log-linear histogram of durations in nanoseconds: exact
// below 2^histSub ns, and above that 2^histSub buckets per power of
// two, so a bucket is at most 1/64 of its lower edge wide. It has a
// fixed size, so recording allocates nothing and the load generator's
// memory does not grow with the ops it completes.
type latHist struct {
	n      uint64
	counts [histBuckets]uint64
}

func histBucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 1<<histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSub
	i := (shift+1)<<histSub + int(v>>shift) - 1<<histSub
	return min(i, histBuckets-1)
}

// histEdges returns bucket i's lower edge and width in nanoseconds.
func histEdges(i int) (lo, width float64) {
	if i < 1<<histSub {
		return float64(i), 1
	}
	shift := i>>histSub - 1
	sub := i & (1<<histSub - 1)
	return float64(uint64(1<<histSub+sub) << shift), float64(uint64(1) << shift)
}

func (h *latHist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) in nanoseconds, placing
// the rank p·n linearly inside the bucket it falls in; 0 when empty.
func (h *latHist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, w := histEdges(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum = next
	}
	lo, w := histEdges(histBuckets - 1)
	return lo + w
}

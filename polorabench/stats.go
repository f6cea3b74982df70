package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile: with fewer, the percentile is one or two unlucky samples and
// does not repeat between runs.
const minBeyond = 10

// tail is one percentile of a latency sample, with the evidence behind it.
type tail struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value_ms"`
	Beyond int     `json:"beyond"`
	N      int     `json:"n"`
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted and the number of samples strictly above its rank. ok is false
// when fewer than minBeyond samples lie beyond it, in which case the
// percentile must not be reported.
func percentile(sorted []float64, p float64) (t tail, ok bool) {
	n := len(sorted)
	t = tail{P: p, N: n}
	if n == 0 {
		return t, false
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	t.Value = sorted[rank-1]
	t.Beyond = n - rank
	return t, t.Beyond >= minBeyond
}

// median returns the median of values (the mean of the middle two for an
// even count), as Python's statistics.median does. values is not changed.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of values into four groups with
// the same method as Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method). It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of values as a share of their
// median: the figure the benchmark's bounds are set against.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

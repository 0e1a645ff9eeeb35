package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile; a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks. ok is false when fewer than
// minBeyond samples lie beyond the quantile, so the caller reports the
// figure as absent instead of a tail read off a handful of samples.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-q) < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return s[n-1], true
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), true
}

// median is the 0.5-quantile; it needs no tail samples beyond it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

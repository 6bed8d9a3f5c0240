package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// pct is a reported percentile: the one asked for, or the highest below it
// that the sample count supports.
type pct struct {
	value float64
	p     float64 // percentile actually reported
	n     int     // samples it rests on
}

// median returns the middle of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile reports the want-th percentile of xs by nearest rank, or, when
// fewer than tailMinBeyond samples would lie beyond it, the highest whole
// percentile that leaves tailMinBeyond samples beyond it. The median is
// always reportable: below 2*tailMinBeyond samples a tail percentile falls
// back to it.
func percentile(xs []float64, want float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	p := want
	if want > 50 {
		// Nearest rank k = ceil(p/100*n) leaves n-k samples beyond it.
		maxP := math.Floor(100 * float64(n-tailMinBeyond) / float64(n))
		if maxP < p {
			p = maxP
		}
		if p < 50 {
			p = 50
		}
	}
	if p == 50 {
		return pct{median(xs), 50, n}
	}
	s := sorted(xs)
	k := int(math.Ceil(p * float64(n) / 100))
	if k < 1 {
		k = 1
	}
	return pct{s[k-1], p, n}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the fixed set of percentiles a tail is reported at. The
// tail is the highest of them with at least ten samples beyond it; a fixed
// ladder keeps the reported percentile the same from run to run when the
// sample count drifts slightly.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99}

// sample is a set of observations in one unit.
type sample []float64

// quantile returns the nearest-rank q-quantile, or 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(sample(nil), s...)
	sort.Float64s(c)
	r := int(math.Ceil(q*float64(len(c)))) - 1
	if r < 0 {
		r = 0
	}
	return c[r]
}

func (s sample) median() float64 { return s.quantile(0.5) }

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value.
func (s sample) tail() (q, v float64) {
	q = tailLadder[0]
	for _, p := range tailLadder {
		rank := int(math.Ceil(p * float64(len(s))))
		if len(s)-rank >= 10 {
			q = p
		}
	}
	return q, s.quantile(q)
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. It returns 0 for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// nsPerOp runs fn (which performs n operations per call) until budget has
// elapsed and returns the mean nanoseconds per operation. The layer
// micro-measurements use it the way testing.B uses b.N: the call is long
// enough that the clock reads do not matter.
func nsPerOp(budget time.Duration, n int, fn func()) float64 {
	fn() // warm caches and lazily built tables
	var calls int
	start := time.Now()
	for time.Since(start) < budget {
		fn()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls*n)
}

package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank p-quantile of an ascending sample
// (NaN when the sample is empty).
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

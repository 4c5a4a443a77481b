package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile,
// so that one outlier cannot set it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least a q share of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond counts the samples strictly above the nearest-rank q-quantile of
// n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile returns the highest of the usual tail quantiles that keeps
// at least minBeyond samples above it among n samples, and false when even
// the median does not.
func tailQuantile(n int) (float64, bool) {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75, 0.5} {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// minTailOps is the fewest samples that keep minBeyond above the
// nearest-rank q-quantile.
func minTailOps(q float64) int {
	n := minBeyond
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

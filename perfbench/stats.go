package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minTail = 10

// minSamples returns the smallest sample count for which quantile q has
// minTail samples beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(minTail/(1-q) - 1e-9))
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts in
// place). It refuses to report a percentile with fewer than minTail samples
// beyond it; q = 0.5 is always accepted on a non-empty sample.
func quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("quantile of an empty sample")
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := len(xs) - idx - 1; q > 0.5 && beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, len(xs), beyond, minTail)
	}
	return xs[idx], nil
}

// median returns the median of xs (sorted in place); the mean of the two
// middle values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[h]
	}
	return (xs[h-1] + xs[h]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric name and unit fit the result format.
func validMetric(name, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q must match %s", name, metricName)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q must match %s", name, unit, metricUnit)
	}
	return nil
}

package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to mean anything.
const minTail = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile with at least
// minTail of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples, ceil(p/100*n), in integer arithmetic on tenths of a percent
// so that p99.9 of 10,000 is exactly rank 9,990.
func rank(n int, p float64) int {
	tenths := int(math.Round(p * 10))
	r := (tenths*n + 999) / 1000
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// sample collects one timing's observations in a fixed unit.
type sample struct {
	vals []float64
}

func (s *sample) add(v float64) { s.vals = append(s.vals, v) }

// addDur records d in milliseconds.
func (s *sample) addDur(d time.Duration) { s.add(ms(d)) }

func (s *sample) n() int { return len(s.vals) }

func (s *sample) sorted() []float64 {
	out := append([]float64(nil), s.vals...)
	sort.Float64s(out)
	return out
}

func (s *sample) median() float64 { return percentile(s.sorted(), 50) }

// summary is the reported shape of one timing: median, the highest tail
// percentile the sample count supports, and the count.
type summary struct {
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail_pct,omitempty"`
	PTail float64 `json:"tail,omitempty"`
	N     int     `json:"n"`
}

func (s *sample) summary() summary {
	sorted := s.sorted()
	if len(sorted) == 0 {
		return summary{}
	}
	out := summary{P50: percentile(sorted, 50), N: len(sorted)}
	if p := tailPercentile(len(sorted)); p > 50 {
		out.Tail, out.PTail = p, percentile(sorted, p)
	}
	return out
}

// failShare is the share of attempted operations that failed, were
// refused, or disagreed with the oracle.
func failShare(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

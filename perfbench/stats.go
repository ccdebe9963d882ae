package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer samples is one slow outlier.
const minBeyond = 10

// tailPercentiles are tried from the highest down when a tail is asked for.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// quantile is one percentile of a sample set with the counts behind it.
type quantile struct {
	P      float64 // percentile asked for
	Value  float64 // in the samples' unit
	N      int     // samples
	Beyond int     // samples strictly above the percentile's rank
	OK     bool    // Beyond >= minBeyond (always true for p50 with N >= 1)
}

// String prints the percentile with its sample counts, so no tail figure is
// ever shown without the number of samples it rests on.
func (q quantile) String() string {
	s := fmt.Sprintf("p%g=%.4f (n=%d, %d beyond)", q.P, q.Value, q.N, q.Beyond)
	if !q.OK {
		s += " [fewer than 10 beyond]"
	}
	return s
}

// percentile returns the nearest-rank p-th percentile of sorted. The rank is
// ceil(p/100·n), so Beyond = n − rank samples are strictly slower.
func percentile(sorted []float64, p float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{P: p}
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	beyond := n - rank
	return quantile{P: p, Value: sorted[rank-1], N: n, Beyond: beyond, OK: p == 50 || beyond >= minBeyond}
}

// tail returns the highest of tailPercentiles that has at least minBeyond
// samples beyond it, falling back to the median.
func tail(sorted []float64) quantile {
	for _, p := range tailPercentiles {
		if q := percentile(sorted, p); q.OK {
			return q
		}
	}
	return percentile(sorted, 50)
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of unsorted values (the input is not modified).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a share with its base, so no ratio is printed without the counts
// it was computed from.
type ratio struct {
	Num, Den   uint64
	What, Base string // e.g. "hits", "lookups"
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6f (%d %s of %d %s)", r.Value(), r.Num, r.What, r.Den, r.Base)
}

package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over 300 samples rests on three values and
// says nothing repeatable.
const minTail = 10

// latencySummary is one latency distribution: its sample count, median,
// p99 and the highest percentile the sample supports.
type latencySummary struct {
	N       int
	P50     float64 // ms
	P99     float64 // ms
	TopPct  float64 // highest percentile with at least minTail samples beyond it
	TopMs   float64 // latency at TopPct
	Samples []float64
}

// summarize sorts a copy of the samples and reads its percentiles.
func summarize(ds []time.Duration) latencySummary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	s := latencySummary{N: len(ms), Samples: ms}
	if len(ms) == 0 {
		return s
	}
	s.P50 = percentile(ms, 50)
	s.P99 = percentile(ms, 99)
	s.TopPct = supportedPercentile(len(ms))
	if s.TopPct > 0 {
		s.TopMs = percentile(ms, s.TopPct)
	}
	return s
}

// percentile reads the p-th percentile of sorted samples by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// supportedPercentile returns the highest of the usual reporting
// percentiles up to p99 that still has at least minTail samples beyond
// it, or 0 when even the median does not.
func supportedPercentile(n int) float64 {
	for _, p := range []float64{99, 98, 95, 90, 75, 50} {
		if float64(n)*(1-p/100) >= minTail {
			return p
		}
	}
	return 0
}

// genLag summarizes how late the open-loop generator's sends left
// against their schedule. A generator that fell behind measures its own
// backlog, not the server's, so such runs are flagged.
type genLag struct {
	P50, P99, Max float64 // ms
	Late          int     // sends that left more than lateAfter behind schedule
	N             int
}

// lateAfter is the lateness past which a send counts as late.
const lateAfter = 10 * time.Millisecond

func summarizeLag(lags []time.Duration) genLag {
	s := summarize(lags)
	g := genLag{P50: s.P50, P99: s.P99, N: s.N}
	if s.N > 0 {
		g.Max = s.Samples[s.N-1]
	}
	for _, l := range lags {
		if l > lateAfter {
			g.Late++
		}
	}
	return g
}

// behind reports whether more than 1% of sends left late.
func (g genLag) behind() bool { return g.N > 0 && float64(g.Late) > 0.01*float64(g.N) }

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of the values.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of xs without its lowest and highest value (the
// plain mean below three values). A run aggregates its sessions with it:
// one session that met a busy host or an unusual trajectory does not move
// the run's figure, and the rest still average out seed to seed.
func trimmedMean(xs []float64) float64 {
	if len(xs) < 3 {
		return mean(xs)
	}
	s := sorted(xs)
	return mean(s[1 : len(s)-1])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points that split xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does by default (the
// "exclusive" method). With one value all three are that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		// j is clamped into [1, n-1] before delta is taken, as Python
		// does; for tiny samples that extrapolates.
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// strayLimit is the share of its median an end-to-end value may stray
// before the spread report flags the metric.
const strayLimit = 0.10

// strays reports whether any value lies more than strayLimit of the median
// away from the median.
func strays(xs []float64) bool {
	m := median(xs)
	for _, x := range xs {
		if math.Abs(x-m) > strayLimit*math.Abs(m) {
			return true
		}
	}
	return false
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailLevels are the percentiles a timing's tail is reported at.
var tailLevels = []float64{99.9, 99, 98, 95, 90, 75, 50}

// tailPercentile is the highest of tailLevels with at least ten of n
// samples beyond it; 50 when no higher level has.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// timing summarizes one per-layer timing: its median, its tail at
// tailPercentile and the sample count.
type timing struct {
	P50, Tail float64
	TailAt    float64
	N         int
}

func summarize(xs []float64) timing {
	at := tailPercentile(len(xs))
	return timing{P50: percentile(xs, 50), Tail: percentile(xs, at), TailAt: at, N: len(xs)}
}

// interval is a half-open stretch of time.
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, iv := range clipped {
		if i == 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Children that overlap each other (parallel
// work) are covered once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]interval, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], interval{sp.Start, sp.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, sp := range spans {
		out[i] = sp.End - sp.Start - covered(sp.Start, sp.End, kids[i])
	}
	return out
}

// failureShare is failed operations as a share of those attempted.
func failureShare(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

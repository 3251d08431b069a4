package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// RNG wraps math/rand with the distributions the simulator and the learning
// algorithms need. Every component in the repository receives its RNG from
// its caller (seeded at the session boundary) so runs are reproducible.
//
// The underlying source is gfsrSource, a bit-exact clone of math/rand's
// default source with exportable state, so a checkpointed session can
// restore every stream mid-sequence (see State and SetState).
type RNG struct {
	*rand.Rand
	src *gfsrSource
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	src := newGFSR(seed)
	return &RNG{Rand: rand.New(src), src: src}
}

// RNGState is the complete serializable state of an RNG stream: the lagged
// Fibonacci vector plus the two rolling indices.
type RNGState struct {
	Vec       []int64
	Tap, Feed int
}

// State exports the full generator state. Restoring it with SetState on any
// RNG continues the stream exactly where this one stands.
func (r *RNG) State() RNGState { return r.src.state() }

// SetState reinstates a state captured by State. The RNG's subsequent
// output is identical to the captured stream's continuation. Invalid states
// are rejected without modifying the RNG.
func (r *RNG) SetState(st RNGState) error { return r.src.setState(st) }

type errBadRNGState int

func (e errBadRNGState) Error() string {
	return fmt.Sprintf("sim: RNG state has %d vector words, want %d", int(e), gfsrLen)
}

type errBadRNGPos struct{ tap, feed int }

func (e errBadRNGPos) Error() string {
	return fmt.Sprintf("sim: RNG state indices tap=%d feed=%d out of range [0,%d)", e.tap, e.feed, gfsrLen)
}

// Fork derives an independent child RNG. Children are used when work fans
// out to parallel actors so each actor's stream is stable regardless of
// scheduling order.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Int63())
}

// Gaussian returns a normally distributed sample with the given mean and
// standard deviation.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Uniform returns a sample uniformly distributed in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Zipf draws keys in [0, n) with Zipfian skew s (>1 means skewed; the
// common OLTP benchmark setting is around 1.1–1.3). It is used by the
// workload generators to model hot rows, which in turn drives buffer-pool
// hit ratios and lock contention in the simulated engine.
//
// The key stream is exactly that of rand.NewZipf(r.Rand, s, 1, n-1): the
// same keys from the same generator words, leaving the RNG in the same
// state. math/rand's rejection-inversion sampler spends one exp and one log
// per attempt; Zipf decides most attempts from a table shared by every
// sampler with the same (s, n) and runs the stdlib arithmetic only where the
// table cannot decide (see zipfTable). TestZipfMatchesStdlib and
// FuzzZipfMatchesStdlib pin the equality.
//
// A Zipf is a small value: keep it in a local variable so it stays off the
// heap.
type Zipf struct {
	src *gfsrSource
	t   *zipfTable
}

// NewZipf creates a Zipf sampler over [0, n) with exponent s (must be >1).
func NewZipf(r *RNG, s float64, n uint64) Zipf {
	if s <= 1 {
		s = 1.0001
	}
	return Zipf{src: r.src, t: zipfTableFor(s, n)}
}

// Next returns the next key.
func (z *Zipf) Next() uint64 {
	t := z.t
	for {
		// (*rand.Rand).Float64, including its retry on 1.
		r := float64(z.src.Int63()) / (1 << 63)
		if r == 1 {
			continue
		}
		if k, fast, ok := t.lookup(r); ok {
			if fast {
				return uint64(k)
			}
			ur := t.hxm + r*t.hx0minusHxm
			if ur >= t.h(k+0.5)-math.Exp(-math.Log(k+t.v)*t.q) {
				return uint64(k)
			}
			continue
		}
		// math/rand's (*Zipf).Uint64 loop body, verbatim.
		ur := t.hxm + r*t.hx0minusHxm
		x := t.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= t.s {
			return uint64(k)
		}
		if ur >= t.h(k+0.5)-math.Exp(-math.Log(k+t.v)*t.q) {
			return uint64(k)
		}
	}
}

// N returns the key-space size.
func (z *Zipf) N() uint64 { return z.t.n }

// zipfBuckets is the table resolution: buckets uniform in the uniform draw r.
const zipfBuckets = 4096

// zipfTable holds math/rand's Zipf constants for one (s, n), computed as
// rand.NewZipf computes them, plus a piecewise-linear bound on the stdlib's
// inversion x(r) = hinv(hxm + r·hx0minusHxm). Each bucket stores the chord
// through the stdlib's x at its two edges (intercept and slope in r) and a
// band the stdlib's computed x never leaves inside the bucket: the chord
// error w²/8·max|x″| plus slack for exp/log rounding. Only decisions come
// out of the table, never an x. Tables are immutable once built and shared
// across goroutines.
type zipfTable struct {
	n                                uint64
	v, q, oneminusQ, oneminusQinv, s float64
	hxm, hx0minusHxm                 float64
	b                                [zipfBuckets]zipfBucket
}

type zipfBucket struct{ x0, slope, band float64 }

// lookup decides the uniform draw r from the table alone. The stdlib's
// computed x lies within ±band of the chord estimate; if that band sits in
// key k's fast-accept interval [k−s, k+½) the stdlib accepts k outright
// (fast), and if it sits in k's rejection interval [k−½, k−s) the stdlib
// runs its second test on k. ok is false when the band straddles a
// boundary: only the stdlib arithmetic can decide such a draw.
func (t *zipfTable) lookup(r float64) (k float64, fast, ok bool) {
	b := &t.b[int(r*zipfBuckets)]
	x := b.x0 + b.slope*r
	// Truncation floors every x that can be decided. Below −½, out of
	// range or NaN, it yields some integer whose intervals the band cannot
	// fit, so the draw falls through to the stdlib.
	k = float64(int64(x + 0.5))
	lo, hi := x-b.band, x+b.band
	fast = lo >= k-t.s
	return k, fast, hi < k+0.5 && (fast || lo >= k-0.5 && hi < k-t.s)
}

func (t *zipfTable) h(x float64) float64 {
	return math.Exp(t.oneminusQ*math.Log(t.v+x)) * t.oneminusQinv
}

func (t *zipfTable) hinv(x float64) float64 {
	return math.Exp(t.oneminusQinv*math.Log(t.oneminusQ*x)) - t.v
}

func newZipfTable(s float64, n uint64) *zipfTable {
	t := &zipfTable{n: n, v: 1, q: s}
	imax := float64(n - 1)
	t.oneminusQ = 1.0 - t.q
	t.oneminusQinv = 1.0 / t.oneminusQ
	t.hxm = t.h(imax + 0.5)
	t.hx0minusHxm = t.h(0.5) - math.Exp(math.Log(t.v)*(-t.q)) - t.hxm
	t.s = 1 - t.hinv(t.h(1.5)-math.Exp(-t.q*math.Log(t.v+1.0)))

	// x(r) = u(r)^p − v with u affine and increasing in r and p < 0, so
	// x″ = p(p−1)·(du/dr)²·u^(p−2) shrinks as r grows: its maximum over a
	// bucket sits at the left edge. The rounding slack covers the stdlib's
	// exp/log error, which the division by 1−q amplifies by |p|, and the
	// chord's own evaluation; it is a thousand times the worst case of
	// either. A non-finite band (extreme s or n) leaves every draw in that
	// bucket to the stdlib arithmetic.
	const w = 1.0 / zipfBuckets
	p := t.oneminusQinv
	du := t.oneminusQ * t.hx0minusHxm
	curv := p * (p - 1) * du * du
	slack := 1e-9 + 1e-12*math.Abs(p)
	xl := t.hinv(t.hxm)
	for i := range t.b {
		r0, r1 := float64(i)*w, float64(i+1)*w
		xr := t.hinv(t.hxm + r1*t.hx0minusHxm)
		u0 := t.oneminusQ * (t.hxm + r0*t.hx0minusHxm)
		chord := w * w / 8 * curv * math.Pow(u0, p-2) * (1 + 1e-6)
		round := 2 * slack * (1 + math.Max(math.Abs(xl), math.Abs(xr)))
		slope := (xr - xl) / w
		t.b[i] = zipfBucket{x0: xl - slope*r0, slope: slope, band: chord + round}
		xl = xr
	}
	return t
}

// zipfTables caches tables by (s, n), process-wide: a table is a pure
// function of its key, so sharing it cannot couple callers. A workload
// touches a handful of pairs and a drift stream one or two more per event;
// emptying the cache when it reaches zipfTableCap keeps memory bounded.
var zipfTables struct {
	sync.Mutex
	m map[zipfKey]*zipfTable
}

type zipfKey struct{ s, n uint64 }

const zipfTableCap = 64

func zipfTableFor(s float64, n uint64) *zipfTable {
	key := zipfKey{math.Float64bits(s), n}
	c := &zipfTables
	c.Lock()
	defer c.Unlock()
	if t := c.m[key]; t != nil {
		return t
	}
	if c.m == nil || len(c.m) == zipfTableCap {
		c.m = make(map[zipfKey]*zipfTable)
	}
	t := newZipfTable(s, n)
	c.m[key] = t
	return t
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, v))
}

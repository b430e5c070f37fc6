package main

import (
	"math"
	"sort"
	"time"
)

// missed stands in for the latency of a request that failed, timed out or
// was refused: it sorts above every real latency, so a failure always counts
// as missing any latency limit.
const missed = time.Duration(math.MaxInt64)

// minTail is the number of samples a reported percentile must leave beyond
// it; a percentile with fewer is a statement about a handful of requests.
const minTail = 10

// quantileLadder lists the quantiles the benchmark may report, lowest first.
var quantileLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// rankIndex is the 0-based nearest-rank index of quantile q among n sorted
// samples. The epsilon keeps q·n that lands on an integer (0.99·1000) from
// rounding up through floating-point error.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond reports how many of n samples lie strictly above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// supported reports whether n samples leave at least minTail beyond q.
func supported(n int, q float64) bool { return beyond(n, q) >= minTail }

// highestSupported returns the highest quantile of quantileLadder that n
// samples support, and false when not even the median is supported.
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range quantileLadder {
		if supported(n, q) {
			best, ok = q, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank q-quantile of already sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

// sortedCopy returns the samples in ascending order without touching the
// input.
func sortedCopy(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianFloat returns the median of xs (mean of the middle pair for even
// counts), or 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// slo is the objective a capacity-ladder step must meet.
type slo struct {
	// Limit bounds the step's Quantile latency, timed from each request's
	// scheduled send; failures count as missing it.
	Quantile float64
	Limit    time.Duration
	// FailBudget bounds failed/attempted.
	FailBudget float64
	// LateGrowth bounds how much the generator's lateness may grow from the
	// first quarter of the step to the last: a backlog that keeps growing
	// means the offered rate is not being served, whatever the tail says.
	LateGrowth time.Duration
}

// paperSLO is the paper's §5.2.2 latency objective, p90 under 7 ms, at the
// server's default error budget (-slo-error-budget 0.001). A p99 limit
// cannot be judged steadily on a small shared machine: its p99 follows how
// often the machine stalls, which changes from run to run.
var paperSLO = slo{Quantile: 0.9, Limit: 7 * time.Millisecond, FailBudget: 0.001, LateGrowth: time.Millisecond}

// window is the number of consecutive requests one tail estimate covers:
// the fewest that leave minTail samples beyond a p99.
const window = 1000

// windowed is the median, over consecutive windows of the series, of each
// window's q-quantile. One stall of the machine spoils the tail of the
// window it falls in, not the whole phase. ok is false for fewer than one
// window.
func windowed(lats []time.Duration, q float64) (time.Duration, bool) {
	var ps []time.Duration
	for w := 0; w+window <= len(lats); w += window {
		ps = append(ps, percentile(sortedCopy(lats[w:w+window]), q))
	}
	if len(ps) == 0 {
		return 0, false
	}
	ps = sortedCopy(ps)
	n := len(ps)
	if n%2 == 1 {
		return ps[n/2], true
	}
	// Halves first: a missed window must not overflow the sum.
	return ps[n/2-1]/2 + ps[n/2]/2, true
}

// stepVerdict is the outcome of one ladder step against the objective.
type stepVerdict struct {
	Tail        time.Duration // windowed latency at the objective's quantile
	FailRatio   float64
	LateGrowing bool
	Supported   bool // at least one window
	Met         bool
}

// judge checks one step. lats are request latencies in schedule order with
// failures as missed; late is the generator's lateness in schedule order.
func (o slo) judge(lats, late []time.Duration) stepVerdict {
	var v stepVerdict
	if len(lats) == 0 {
		return v
	}
	failed := 0
	for _, l := range lats {
		if l == missed {
			failed++
		}
	}
	v.FailRatio = float64(failed) / float64(len(lats))
	v.Tail, v.Supported = windowed(lats, o.Quantile)
	v.LateGrowing = lateGrowing(late, o.LateGrowth)
	v.Met = v.Supported && v.Tail <= o.Limit && v.FailRatio <= o.FailBudget && !v.LateGrowing
	return v
}

// lateGrowing compares the median lateness of the first and last quarter of
// a step (in schedule order): the generator falling further behind as the
// step goes on is a backlog, not a blip.
func lateGrowing(late []time.Duration, limit time.Duration) bool {
	q := len(late) / 4
	if q == 0 {
		return false
	}
	first := percentile(sortedCopy(late[:q]), 0.5)
	last := percentile(sortedCopy(late[len(late)-q:]), 0.5)
	return last-first > limit
}

// ladder is the fixed geometric rate ladder the capacity search walks:
// rung k offers Base·Ratio^k requests per second.
type ladder struct {
	Base  float64
	Ratio float64
}

// climbStride is how many rungs one climbing step skips; bisection
// recovers the rungs in between.
const climbStride = 4

func (l ladder) rate(k int) float64 { return l.Base * math.Pow(l.Ratio, float64(k)) }

// searchCapacity walks the ladder from rung 0 and returns the highest rung
// whose step met the objective. When rung 0 misses, it descends until a
// rung passes. Otherwise it climbs climbStride rungs at a time while steps
// pass; a miss while climbing is probed once more, so one step spoiled by a
// stall of the machine does not end the climb. A repeated miss ends it, and
// bisection between the last pass and that miss finds the highest passing
// rung. Before each probe, canProbe says whether rung k still fits the
// search's budget; the search ends at the first that does not. ok is false
// when no probed rung passed.
func searchCapacity(probe, canProbe func(k int) bool) (best int, ok bool) {
	try := func(k int) bool { return canProbe(k) && probe(k) }
	if !probe(0) {
		for k := -1; canProbe(k); k-- {
			if probe(k) {
				return k, true
			}
		}
		return 0, false
	}
	hi := -1
	for {
		k := best + climbStride
		if !canProbe(k) {
			break
		}
		if probe(k) || try(k) {
			best = k
			continue
		}
		hi = k
		break
	}
	for hi > best+1 {
		mid := (best + hi) / 2
		if !canProbe(mid) {
			break
		}
		if probe(mid) {
			best = mid
		} else {
			hi = mid
		}
	}
	return best, true
}

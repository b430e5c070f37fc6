package main

import (
	"testing"
	"time"
)

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 1000)
	for i := range xs {
		xs[i] = time.Duration(i+1) * time.Microsecond
	}
	if got := percentile(xs, 0.99); got != 990*time.Microsecond {
		t.Fatalf("p99 = %v, want 990µs", got)
	}
	if got := percentile(xs, 0.5); got != 500*time.Microsecond {
		t.Fatalf("p50 = %v, want 500µs", got)
	}
}

func flat(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestJudgeCountsFailuresAsMissing(t *testing.T) {
	lats := flat(3000, time.Millisecond)
	late := flat(3000, 0)
	if v := paperSLO.judge(lats, late); !v.Met {
		t.Fatalf("clean step missed: %+v", v)
	}
	// Eleven failures in one window are not enough to move its p90, but
	// they break the fail budget.
	for i := 0; i < 11; i++ {
		lats[i] = missed
	}
	v := paperSLO.judge(lats, late)
	if v.Met || v.FailRatio <= paperSLO.FailBudget {
		t.Fatalf("step with %.4f failures met the objective: %+v", v.FailRatio, v)
	}
	// Failures spread over every window make each window's tail a miss.
	lats = flat(3000, time.Millisecond)
	for w := 0; w < 3; w++ {
		for i := 0; i < 11; i++ {
			lats[w*window+i] = missed
		}
	}
	if v := (slo{Quantile: 0.99, Limit: 7 * time.Millisecond, FailBudget: 1, LateGrowth: time.Millisecond}).judge(lats, late); v.Met || v.Tail != missed {
		t.Fatalf("failures did not miss the latency limit: %+v", v)
	}
}

func TestJudgeWindowedTail(t *testing.T) {
	lats := flat(3000, time.Millisecond)
	// One window's tail spoiled by a stall: the median window decides.
	for i := 0; i < 150; i++ {
		lats[i] = 30 * time.Millisecond
	}
	if v := paperSLO.judge(lats, flat(3000, 0)); !v.Met {
		t.Fatalf("one stalled window failed the step: %+v", v)
	}
	// Two of three spoiled: the step misses.
	for i := window; i < window+150; i++ {
		lats[i] = 30 * time.Millisecond
	}
	if v := paperSLO.judge(lats, flat(3000, 0)); v.Met {
		t.Fatalf("two stalled windows met the objective: %+v", v)
	}
	if v := paperSLO.judge(flat(999, time.Millisecond), flat(999, 0)); v.Met || v.Supported {
		t.Fatalf("a step shorter than one window was judged: %+v", v)
	}
}

func TestLateGrowing(t *testing.T) {
	steady := flat(400, 100*time.Microsecond)
	if lateGrowing(steady, time.Millisecond) {
		t.Fatal("steady lateness reported as growing")
	}
	growing := make([]time.Duration, 400)
	for i := range growing {
		growing[i] = time.Duration(i) * 20 * time.Microsecond // 8 ms behind by the end
	}
	if !lateGrowing(growing, time.Millisecond) {
		t.Fatal("a growing backlog was not reported")
	}
}

// searchFor runs the capacity search against a server that meets the
// objective up to rung limit, with the given rungs failing spuriously on
// their first probe.
func searchFor(limit int, spurious map[int]bool, maxSteps int) (best int, ok bool, probes []int) {
	seen := map[int]bool{}
	best, ok = searchCapacity(func(k int) bool {
		probes = append(probes, k)
		first := !seen[k]
		seen[k] = true
		if first && spurious[k] {
			return false
		}
		return k <= limit
	}, func(int) bool { return len(probes) < maxSteps })
	return best, ok, probes
}

func TestSearchCapacity(t *testing.T) {
	for limit := 0; limit <= 23; limit++ {
		best, ok, probes := searchFor(limit, nil, 20)
		if !ok || best != limit {
			t.Errorf("limit %d: found %d, %v (probes %v)", limit, best, ok, probes)
		}
	}
	// Below rung 0 the search descends.
	if best, ok, _ := searchFor(-3, nil, 10); !ok || best != -3 {
		t.Errorf("limit -3: found %d, %v", best, ok)
	}
	if _, ok, _ := searchFor(-30, nil, 10); ok {
		t.Error("a search with no passing rung reported success")
	}
}

func TestSearchCapacityStopRule(t *testing.T) {
	// One spoiled step while climbing is probed again and does not end the
	// climb.
	if best, _, probes := searchFor(13, map[int]bool{8: true}, 20); best != 13 {
		t.Errorf("a spurious miss ended the climb at %d (probes %v)", best, probes)
	}
	// The climb stops at a repeated miss and bisects below it.
	_, _, probes := searchFor(5, nil, 20)
	want := []int{0, 4, 8, 8, 6, 5}
	if len(probes) != len(want) {
		t.Fatalf("probes %v, want %v", probes, want)
	}
	for i := range want {
		if probes[i] != want[i] {
			t.Fatalf("probes %v, want %v", probes, want)
		}
	}
	// The budget is a hard limit.
	if _, _, probes := searchFor(100, nil, 5); len(probes) != 5 {
		t.Errorf("%d probes with a budget of 5", len(probes))
	}
}

func TestLadderSpacing(t *testing.T) {
	l := ladder{Base: fixedRate, Ratio: ladderRatio}
	for k := 0; k < 30; k++ {
		if r := l.rate(k+1) / l.rate(k); r > 1.1+1e-9 {
			t.Fatalf("rungs %d and %d are %.3fx apart", k, k+1, r)
		}
	}
}

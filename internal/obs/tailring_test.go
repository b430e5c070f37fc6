package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// finishAt runs a span through Finish with a synthetic start and duration by
// freezing the span clock; the caller owns restoring nowMono.
func finishAt(tr *Tracer, op string, start time.Time, total time.Duration, errClass string) {
	nowMono = func() time.Time { return start }
	sp := tr.Start(op)
	nowMono = func() time.Time { return start.Add(total) }
	sp.Cut(StageScore)
	if errClass != "" {
		sp.SetError(errClass)
	}
	tr.Finish(sp)
}

// TestTailRingRetainsOutlier is the acceptance check: with the same ring
// size, uniform sampling loses a 100ms outlier to eviction by the fast
// traffic that follows, while the slowest-N tier provably retains it.
func TestTailRingRetainsOutlier(t *testing.T) {
	defer func() { nowMono = time.Now }()
	tr := NewTracer(TracerOptions{RingSize: 8, TailKeep: 8, TailWindow: time.Hour})

	base := time.Now()
	finishAt(tr, "recommend", base, 100*time.Millisecond, "") // the outlier
	for i := 0; i < 50; i++ {
		finishAt(tr, "recommend", base, 500*time.Microsecond, "")
	}

	for _, sp := range tr.Recent() {
		if sp.Total >= 100*time.Millisecond {
			t.Fatalf("uniform ring still holds the outlier after 50 evicting spans")
		}
	}
	slowest := tr.Slowest()
	if len(slowest) == 0 || slowest[0].Total < 100*time.Millisecond {
		t.Fatalf("tail tier lost the 100ms outlier: %v", slowest)
	}
	// Slowest-first ordering.
	for i := 1; i < len(slowest); i++ {
		if slowest[i].Total > slowest[i-1].Total {
			t.Fatalf("slowest() out of order at %d: %v > %v", i, slowest[i].Total, slowest[i-1].Total)
		}
	}
}

func TestTailRingWindowRotation(t *testing.T) {
	defer func() { nowMono = time.Now }()
	base := time.Now()
	tr := NewTracer(TracerOptions{RingSize: 8, TailKeep: 2, TailWindow: time.Minute})

	finishAt(tr, "a", base, 50*time.Millisecond, "")
	// Advance past one window: the 50ms span parks in the previous window.
	finishAt(tr, "b", base.Add(2*time.Minute), 10*time.Millisecond, "")
	got := tr.Slowest()
	if len(got) != 2 || got[0].Op != "a" || got[1].Op != "b" {
		t.Fatalf("after one rotation: %+v", got)
	}
	// A second rotation expires the 50ms span entirely.
	finishAt(tr, "c", base.Add(4*time.Minute), 1*time.Millisecond, "")
	for _, sp := range tr.Slowest() {
		if sp.Op == "a" {
			t.Fatalf("span survived two window rotations")
		}
	}
}

func TestErrorTierRetainsAllErrors(t *testing.T) {
	defer func() { nowMono = time.Now }()
	tr := NewTracer(TracerOptions{RingSize: 4, SampleEvery: 100, ErrorKeep: 16})
	for i := 0; i < 30; i++ {
		finishAt(tr, "recommend", time.Now(), time.Millisecond, "")
	}
	finishAt(tr, "recommend", time.Now(), time.Millisecond, "store")
	finishAt(tr, "recommend", time.Now(), time.Millisecond, "bad_request")
	errs := tr.ErrorTraces()
	if len(errs) != 2 || errs[0].Error != "bad_request" || errs[1].Error != "store" {
		t.Fatalf("error tier = %+v", errs)
	}
}

func TestSpanFlags(t *testing.T) {
	f := FlagCacheMiss | FlagCacheLeader
	if got := f.String(); got != "cache_miss,cache_leader" {
		t.Fatalf("String = %q", got)
	}
	if got := SpanFlags(0).String(); got != "-" {
		t.Fatalf("zero String = %q", got)
	}
	names := (FlagCacheHit | FlagCacheWaiter).Names()
	if len(names) != 2 || names[0] != "cache_hit" || names[1] != "cache_waiter" {
		t.Fatalf("Names = %v", names)
	}
}

func TestTraceHandlerFilters(t *testing.T) {
	defer func() { nowMono = time.Now }()
	tr := NewTracer(TracerOptions{RingSize: 64, TailKeep: 8, ErrorKeep: 8})
	finishAt(tr, "recommend", time.Now(), 50*time.Millisecond, "")
	finishAt(tr, "recommend", time.Now(), time.Millisecond, "")
	finishAt(tr, "explain", time.Now(), 30*time.Millisecond, "")
	finishAt(tr, "recommend", time.Now(), time.Millisecond, "store")

	get := func(url string) (string, []traceView) {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var body struct {
			View   string      `json:"view"`
			Traces []traceView `json:"traces"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
		return body.View, body.Traces
	}

	if _, all := get("/debug/traces"); len(all) != 4 {
		t.Fatalf("unfiltered = %d traces, want 4", len(all))
	}
	if _, slow := get("/debug/traces?min_ms=20"); len(slow) != 2 {
		t.Fatalf("min_ms=20 = %d traces, want 2", len(slow))
	}
	if _, op := get("/debug/traces?endpoint=explain"); len(op) != 1 || op[0].Op != "explain" {
		t.Fatalf("endpoint filter = %+v", op)
	}
	view, errs := get("/debug/traces?errors=1")
	if view != "errors" || len(errs) != 1 || errs[0].Error != "store" {
		t.Fatalf("errors view = %q %+v", view, errs)
	}
	view, slowest := get("/debug/traces?slowest=1&endpoint=recommend&min_ms=20")
	if view != "slowest" || len(slowest) != 1 || slowest[0].TotalNS < int64(50*time.Millisecond) {
		t.Fatalf("combined slowest view = %q %+v", view, slowest)
	}
}

func TestSlowLogContextAndBurnState(t *testing.T) {
	defer func() { nowMono = time.Now }()
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	sl := NewSlowLog(logger, time.Millisecond, 100)
	sl.SetBurnState(func() (float64, bool, bool) { return 22.5, true, false })
	tr := NewTracer(TracerOptions{SlowLog: sl})

	base := time.Now()
	nowMono = func() time.Time { return base }
	sp := tr.Start("recommend")
	sp.AddFlags(FlagCacheMiss | FlagCacheLeader)
	base = base.Add(2 * time.Millisecond)
	sp.Cut(StageCandidates)
	base = base.Add(3 * time.Millisecond)
	sp.Cut(StageScore)
	tr.Finish(sp)

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		"flags=cache_miss,cache_leader",
		"stage_candidates=2ms",
		"stage_score=3ms",
		"slo_burn_rate=22.5",
		"slo_fast_burn=true",
		"slo_slow_burn=false",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-log entry missing %q:\n%s", want, out)
		}
	}
}

func TestSlowLogSuppressedTotalMonotone(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	sl := NewSlowLog(logger, time.Nanosecond, 2)
	tr := NewTracer(TracerOptions{SlowLog: sl})
	for i := 0; i < 10; i++ {
		sp := tr.Start("op")
		time.Sleep(10 * time.Microsecond)
		tr.Finish(sp)
	}
	if sl.Logged() == 0 {
		t.Fatal("nothing logged")
	}
	first := sl.SuppressedTotal()
	if first == 0 {
		t.Fatal("nothing suppressed at 2/s over 10 rapid entries")
	}
	// Emitting another entry drains the per-entry counter but must not
	// reduce the cumulative one.
	sp := tr.Start("op")
	time.Sleep(10 * time.Microsecond)
	tr.Finish(sp)
	if sl.SuppressedTotal() < first {
		t.Fatalf("SuppressedTotal went backwards: %d → %d", first, sl.SuppressedTotal())
	}
}

package serving

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"serenade/internal/core"
	"serenade/internal/obs"
	"serenade/internal/obs/slo"
	"serenade/internal/sessions"
)

// sloState decodes a /debug/slo endpoint entry.
type sloState struct {
	Endpoint string `json:"endpoint"`
	Windows  []struct {
		Window          string  `json:"window"`
		Total           uint64  `json:"total"`
		LatencyBurnRate float64 `json:"latency_burn_rate"`
	} `json:"windows"`
	FastBurn        bool    `json:"fast_burn"`
	SlowBurn        bool    `json:"slow_burn"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

func fetchSLO(t *testing.T, url string) []sloState {
	t.Helper()
	resp, err := http.Get(url + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Endpoints []sloState `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Endpoints
}

// TestDebugSLOOverAndUnderBudget drives the same request load against two
// servers whose objectives differ, pushing one deterministically over budget
// (every request violates a 1ns threshold) and leaving the other untouched
// (no request violates a 10s threshold).
func TestDebugSLOOverAndUnderBudget(t *testing.T) {
	over := testServer(t, Config{SLOLatencyThreshold: time.Nanosecond})
	under := testServer(t, Config{SLOLatencyThreshold: 10 * time.Second})
	for i := 0; i < 50; i++ {
		for _, s := range []*Server{over, under} {
			if _, err := s.Recommend(Request{SessionKey: "u1", Item: popularItem(), Consent: true}); err != nil {
				t.Fatal(err)
			}
		}
	}

	tsOver := httptest.NewServer(over.Handler())
	defer tsOver.Close()
	eps := fetchSLO(t, tsOver.URL)
	if len(eps) != 1 || eps[0].Endpoint != "recommend" {
		t.Fatalf("/debug/slo endpoints = %+v", eps)
	}
	st := eps[0]
	if st.Windows[0].Total != 50 {
		t.Fatalf("1m window total = %d, want 50", st.Windows[0].Total)
	}
	if st.Windows[0].LatencyBurnRate < slo.FastBurnRate || !st.FastBurn {
		t.Fatalf("all-slow traffic did not push over budget: %+v", st)
	}
	if st.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v under 100x burn", st.BudgetRemaining)
	}

	tsUnder := httptest.NewServer(under.Handler())
	defer tsUnder.Close()
	st = fetchSLO(t, tsUnder.URL)[0]
	if st.Windows[0].LatencyBurnRate != 0 || st.FastBurn || st.SlowBurn {
		t.Fatalf("all-fast traffic burned budget: %+v", st)
	}
	if st.BudgetRemaining != 1 {
		t.Fatalf("budget remaining = %v with zero burn", st.BudgetRemaining)
	}
}

// TestHealthSignal checks the overload telemetry surface with every
// contributor enabled: result cache and the SLO engine.
func TestHealthSignal(t *testing.T) {
	s := testServer(t, Config{
		ResultCacheSize:     64,
		SLOLatencyThreshold: time.Nanosecond, // everything burns
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s.Recommend(Request{SessionKey: "u", Item: popularItem(), Consent: false})
			}
		}(g)
	}
	wg.Wait()

	h := s.Health()
	if h.CacheLookups1m == 0 {
		t.Fatalf("health lost cache lookups: %+v", h)
	}
	if h.CacheHitRatio1m <= 0 || h.CacheHitRatio1m > 1 {
		t.Fatalf("20 identical depersonalised requests should mostly hit: ratio=%v", h.CacheHitRatio1m)
	}
	if !h.FastBurn || h.BurnRate < slo.FastBurnRate {
		t.Fatalf("burn state missing from health: %+v", h)
	}
	if h.Goroutines == 0 || h.Time.IsZero() {
		t.Fatalf("runtime fields unfilled: %+v", h)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"in_flight", "cache_hit_ratio_1m", "slo_burn_rate", "goroutines"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("/debug/health missing %q: %v", key, decoded)
		}
	}
}

// TestCacheFlagsInTraces drives two identical depersonalised requests through
// a cached server: the first is the single-flight leader (cache_miss), the
// second a hit, and /debug/traces reports both annotations.
func TestCacheFlagsInTraces(t *testing.T) {
	s := testServer(t, Config{ResultCacheSize: 64, TraceSampleEvery: 1})
	for i := 0; i < 2; i++ {
		if _, err := s.Recommend(Request{SessionKey: "u", Item: popularItem(), Consent: false}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var payload struct {
		Traces []struct {
			Flags []string `json:"flags"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(payload.Traces))
	}
	// Newest first: trace 0 is the second request.
	if len(payload.Traces[0].Flags) != 1 || payload.Traces[0].Flags[0] != "cache_hit" {
		t.Errorf("second request flags = %v, want [cache_hit]", payload.Traces[0].Flags)
	}
	want := []string{"cache_miss", "cache_leader"}
	if got := payload.Traces[1].Flags; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("first request flags = %v, want %v", got, want)
	}
}

// TestStagesPartitionEveryPath pins one stage taxonomy on every serving
// path: a span's stages sum to its total (up to the bookkeeping after the
// last cut), a request that ran the kernel bills its neighbour selection to
// candidates, and a cache hit or coalesced wait, which runs none, bills only
// the copy to score. The sum is timing: a GC pause or preemption after the
// last cut leaves a gap no stage owns, so each path gets a few attempts and
// must partition on one of them.
func TestStagesPartitionEveryPath(t *testing.T) {
	plain := testServer(t, Config{TraceSampleEvery: 1})
	cached := testServer(t, Config{ResultCacheSize: 64, TraceSampleEvery: 1})
	slot := 2*DefaultRecommendations + 1

	recommend := func(s *Server, key string, item sessions.ItemID, consent bool) obs.Span {
		t.Helper()
		if _, err := s.Recommend(Request{SessionKey: key, Item: item, Consent: consent}); err != nil {
			t.Fatal(err)
		}
		return s.Tracer().Recent()[0]
	}
	// coalesce parks a request on a cache entry the test leads itself, then
	// fills the entry with the kernel's answer or abandons it.
	coalesce := func(key string, item sessions.ItemID, abandon bool) obs.Span {
		t.Helper()
		gen := cached.active.Load()
		ckey := appendCacheKey(nil, []sessions.ItemID{item}, slot, gen.seq)
		e, outcome := cached.cache.acquire(ckey)
		if outcome != cacheLead {
			t.Fatalf("item %d: test could not lead its cache entry", item)
		}
		before := cached.cache.coalesced.Load()
		spans := make(chan obs.Span)
		go func() {
			if _, err := cached.Recommend(Request{SessionKey: key, Item: item, Consent: true}); err != nil {
				t.Error(err)
			}
			spans <- cached.Tracer().Recent()[0]
		}()
		for cached.cache.coalesced.Load() == before {
			time.Sleep(50 * time.Microsecond)
		}
		if abandon {
			cached.cache.abandon(ckey, e)
		} else {
			rec := gen.pool.Get().(*core.Recommender)
			cached.cache.fill(ckey, e, rec.Recommend([]sessions.ItemID{item}, slot), true)
			gen.pool.Put(rec)
		}
		return <-spans
	}

	// Each attempt uses fresh session keys and, on the cached server, a
	// fresh item, so it takes the same path as the first.
	paths := []struct {
		name   string
		span   func(a int) obs.Span
		flags  obs.SpanFlags
		kernel bool
	}{
		{"direct", func(a int) obs.Span { return recommend(plain, fmt.Sprint("direct", a), popularItem(), true) }, 0, true},
		{"depersonalised", func(a int) obs.Span { return recommend(plain, fmt.Sprint("anon", a), popularItem(), false) }, 0, true},
		{"cache leader", func(a int) obs.Span { return recommend(cached, fmt.Sprint("lead", a), sessions.ItemID(100+a), true) },
			obs.FlagCacheMiss | obs.FlagCacheLeader, true},
		{"cache hit", func(a int) obs.Span {
			recommend(cached, fmt.Sprint("prime", a), sessions.ItemID(150+a), true)
			return recommend(cached, fmt.Sprint("hit", a), sessions.ItemID(150+a), true)
		}, obs.FlagCacheHit, false},
		{"cache waiter", func(a int) obs.Span { return coalesce(fmt.Sprint("wait", a), sessions.ItemID(200+a), false) },
			obs.FlagCacheWaiter, false},
		{"abandoned waiter", func(a int) obs.Span { return coalesce(fmt.Sprint("orphan", a), sessions.ItemID(250+a), true) },
			obs.FlagCacheWaiter, true},
	}
	const attempts = 5
	for _, p := range paths {
		for a := 0; a < attempts; a++ {
			sp := p.span(a)
			if sp.Flags != p.flags {
				t.Fatalf("%s: flags %v, want %v", p.name, sp.Flags.Names(), p.flags.Names())
			}
			for _, st := range []obs.Stage{obs.StageStore, obs.StageScore, obs.StageFilter} {
				if sp.Stages[st] <= 0 {
					t.Fatalf("%s: empty %s stage: %v", p.name, st, sp.Stages)
				}
			}
			if ran := sp.Stages[obs.StageCandidates] > 0; ran != p.kernel {
				t.Fatalf("%s: candidates stage %v, want it non-empty exactly when the kernel ran (%v)",
					p.name, sp.Stages[obs.StageCandidates], p.kernel)
			}
			sum := sp.StageSum()
			gap := sp.Total - sum
			if gap >= 0 && gap <= sp.Total/10+20*time.Microsecond {
				break
			}
			if gap < 0 || a == attempts-1 {
				t.Fatalf("%s: stages sum to %v of total %v: %v", p.name, sum, sp.Total, sp.Stages)
			}
		}
	}
}

package serving

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"serenade/internal/sessions"
)

// replaySessions drives the same deterministic click traffic through a
// server under session keys prefix-0, prefix-1, ... and returns every
// response, so two differently-configured servers can be compared request
// for request.
func replaySessions(t *testing.T, s *Server, prefix string, seed int64, users, clicks int) []Response {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []Response
	for u := 0; u < users; u++ {
		key := fmt.Sprintf("%s-%d", prefix, u)
		for c := 0; c < clicks; c++ {
			item := sessions.ItemID(rng.Intn(s.Index().NumItems()))
			resp, err := s.Recommend(Request{SessionKey: key, Item: item, Consent: true})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp)
		}
	}
	return out
}

// TestCachedRecommendMatchesDefault is the serving-layer differential test
// of the result cache: a caching server must answer the same traffic with
// exactly the responses of the default server. The second pass replays the
// first under new session keys, so every one of its predictions is a hit.
func TestCachedRecommendMatchesDefault(t *testing.T) {
	plain := testServer(t, Config{})
	cached := testServer(t, Config{ResultCacheSize: 1024})
	const users, clicks = 6, 8
	for _, pass := range []string{"first", "second"} {
		want := replaySessions(t, plain, pass, 5, users, clicks)
		got := replaySessions(t, cached, pass, 5, users, clicks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s pass: caching server diverged from the default server on identical traffic", pass)
		}
	}
	if st := cached.Stats(); st.CacheHits < users*clicks {
		t.Errorf("replayed pass was not served from the cache: %d hits, want ≥ %d", st.CacheHits, users*clicks)
	}
}

// TestResultCacheHitAndCopy: two sessions at the same point in the same
// click path share one cached prediction, the hit returns the same ranked
// items, and the cached copy is immune to the per-request in-place
// business-rule filtering (each caller gets a private slice).
func TestResultCacheHitAndCopy(t *testing.T) {
	s := testServer(t, Config{ResultCacheSize: 1024})
	first, err := s.Recommend(Request{SessionKey: "a", Item: popularItem(), Consent: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Recommend(Request{SessionKey: "b", Item: popularItem(), Consent: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Items, second.Items) {
		t.Fatal("cache hit returned different items than the miss that filled it")
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("cache counters after two identical-tail requests: misses=%d hits=%d (want 1/1)",
			st.CacheMisses, st.CacheHits)
	}
	if st.CacheEntries == 0 {
		t.Error("no live cache entries after a miss")
	}
}

// TestResultCacheTTLExpiry: past the TTL an entry must stop answering and
// the next identical request recomputes.
func TestResultCacheTTLExpiry(t *testing.T) {
	clk := &testClock{now: time.Unix(1_700_000_000, 0)}
	s := testServer(t, Config{ResultCacheSize: 64, ResultCacheTTL: time.Second, Now: clk.Now})
	if _, err := s.Recommend(Request{SessionKey: "a", Item: popularItem(), Consent: true}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if _, err := s.Recommend(Request{SessionKey: "b", Item: popularItem(), Consent: true}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 0 || st.CacheMisses != 2 {
		t.Errorf("expired entry was served: hits=%d misses=%d (want 0/2)", st.CacheHits, st.CacheMisses)
	}
}

// TestResultCacheInvalidatedOnSwap pins rollover invalidation: an index swap
// must both purge the live entries and (via the generation-tagged keys) make
// any survivor unreachable, so the first post-swap request recomputes
// against the new index.
func TestResultCacheInvalidatedOnSwap(t *testing.T) {
	s := testServer(t, Config{ResultCacheSize: 64})
	if _, err := s.Recommend(Request{SessionKey: "a", Item: popularItem(), Consent: true}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries == 0 {
		t.Fatal("no cache entry before the swap")
	}
	if err := s.SwapIndex(testIndex(t)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 0 {
		t.Errorf("swap left %d cache entries alive", st.CacheEntries)
	}
	if _, err := s.Recommend(Request{SessionKey: "b", Item: popularItem(), Consent: true}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 0 || st.CacheMisses != 2 {
		t.Errorf("post-swap request did not recompute: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

// TestResultCacheSingleFlight: N concurrent requests with an identical
// session tail must resolve to exactly one kernel execution — one miss, the
// rest hits or coalesced waits — and all must agree on the answer.
func TestResultCacheSingleFlight(t *testing.T) {
	s := testServer(t, Config{ResultCacheSize: 1024})
	const n = 16
	responses := make([]Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Recommend(Request{SessionKey: fmt.Sprintf("u%d", i), Item: popularItem(), Consent: true})
			if err != nil {
				t.Error(err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(responses[i].Items, responses[0].Items) {
			t.Fatalf("concurrent identical requests disagree: %v vs %v", responses[i].Items, responses[0].Items)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("%d kernel executions for %d identical concurrent requests, want 1", st.CacheMisses, n)
	}
	if st.CacheHits+st.CacheCoalesced != n-1 {
		t.Errorf("hits=%d coalesced=%d, want them to cover the remaining %d requests",
			st.CacheHits, st.CacheCoalesced, n-1)
	}
}

// TestCacheSwapHammer floods a caching server from many goroutines while
// the index is swapped underneath it — the -race test of the cache's
// leader/waiter hand-off across generations. Responses only need to be
// well-formed; the differential tests above pin exact content.
func TestCacheSwapHammer(t *testing.T) {
	s := testServer(t, Config{ResultCacheSize: 256})
	const workers = 8
	var wg sync.WaitGroup
	stop, swapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swapped)
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.SwapIndex(testIndex(t)); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 120; i++ {
				key := fmt.Sprintf("w%d-u%d", seed, rng.Intn(6))
				resp, err := s.Recommend(Request{
					SessionKey: key,
					Item:       sessions.ItemID(rng.Intn(40)),
					Consent:    rng.Intn(8) != 0,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(resp.Items) > DefaultRecommendations {
					t.Errorf("response overflows the slot: %d items", len(resp.Items))
					return
				}
				for j := 1; j < len(resp.Items); j++ {
					if resp.Items[j].Score > resp.Items[j-1].Score {
						t.Error("response not in descending score order")
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	<-swapped
	if s.Stats().IndexSwaps == 0 {
		t.Error("no index swap overlapped the request flood")
	}
}

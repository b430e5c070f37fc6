package serving

import (
	"fmt"
	"testing"
	"time"

	"serenade/internal/sessions"
)

// Result-cache hot-path benchmarks. The hit benchmark replays one session
// tail so every request after the first is answered from the completed
// entry; the miss benchmark forces a distinct key per request so every op
// pays a kernel execution plus the fill. The spread between the two is the
// cache's headline win on duplicate-burst traffic.

func benchWarmRequest(b *testing.B, s *Server, key string, item sessions.ItemID) {
	b.Helper()
	if _, err := s.Recommend(Request{SessionKey: key, Item: item, Consent: true}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRecommendCacheHit(b *testing.B) {
	s := testServer(b, Config{ResultCacheSize: 4096})
	benchWarmRequest(b, s, "warm", popularItem())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct session keys, identical click tail: every op is a hit.
		if _, err := s.Recommend(Request{
			SessionKey: fmt.Sprintf("u%d", i),
			Item:       popularItem(),
			Consent:    true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecommendCacheMiss(b *testing.B) {
	// A 1ns TTL expires every entry before it can be reused, so every op
	// pays the full miss path: kernel execution plus the single-flight fill.
	s := testServer(b, Config{ResultCacheSize: 4096, ResultCacheTTL: time.Nanosecond})
	numItems := s.Index().NumItems()
	benchWarmRequest(b, s, "warm", popularItem())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Recommend(Request{
			SessionKey: fmt.Sprintf("u%d", i),
			Item:       sessions.ItemID(i % numItems),
			Consent:    true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendNoCache is the baseline the hit/miss pair is read
// against: the default per-request path without the cache.
func BenchmarkRecommendNoCache(b *testing.B) {
	s := testServer(b, Config{})
	numItems := s.Index().NumItems()
	benchWarmRequest(b, s, "warm", popularItem())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Recommend(Request{
			SessionKey: fmt.Sprintf("u%d", i),
			Item:       sessions.ItemID(i % numItems),
			Consent:    true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

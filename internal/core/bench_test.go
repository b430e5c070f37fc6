package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"serenade/internal/sessions"
	"serenade/internal/synth"
)

// Hot-path microbenchmarks for the dense scoring kernel, with the retained
// map-based reference measured under identical workloads so the kernel's
// win (ns/op and allocs/op) is directly visible in one `go test -bench` run.
// Session lengths: small (2 clicks, the median of Table 1), medium (9, the
// full default scoring window), large (30, exercising truncation).

const benchVocab = 500

func benchSetup(b testing.TB) *Index {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := randomDataset(rng, 5000, benchVocab)
	idx, err := BuildIndex(ds, 0)
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

func benchQueries(length int) [][]sessions.ItemID {
	rng := rand.New(rand.NewSource(2))
	queries := make([][]sessions.ItemID, 256)
	for i := range queries {
		q := make([]sessions.ItemID, length)
		for j := range q {
			q[j] = sessions.ItemID(rng.Intn(benchVocab))
		}
		queries[i] = q
	}
	return queries
}

var benchLengths = []int{2, 9, 30}

func BenchmarkNeighborSessions(b *testing.B) {
	idx := benchSetup(b)
	for _, length := range benchLengths {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			r, err := NewRecommender(idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(length)
			r.NeighborSessions(queries[0]) // warm buffer growth out of the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.NeighborSessions(queries[i%len(queries)])
			}
		})
	}
}

func BenchmarkNeighborSessionsMapReference(b *testing.B) {
	idx := benchSetup(b)
	for _, length := range benchLengths {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			r, err := NewReferenceRecommender(idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(length)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.NeighborSessions(queries[i%len(queries)])
			}
		})
	}
}

func BenchmarkRecommend(b *testing.B) {
	idx := benchSetup(b)
	for _, length := range benchLengths {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			r, err := NewRecommender(idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(length)
			r.Recommend(queries[0], 21)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Recommend(queries[i%len(queries)], 21)
			}
		})
	}
}

func BenchmarkRecommendMapReference(b *testing.B) {
	idx := benchSetup(b)
	for _, length := range benchLengths {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			r, err := NewReferenceRecommender(idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(length)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Recommend(queries[i%len(queries)], 21)
			}
		})
	}
}

// BenchmarkRecommendRemap measures the same session-length-9 workload
// against the original and the popularity-ordered posting layout, the
// comparison the optional remap section has to earn its place by.
func BenchmarkRecommendRemap(b *testing.B) {
	idx := benchSetup(b)
	remapped, err := idx.RemappedByPopularity()
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		idx  *Index
	}{{"remap=off", idx}, {"remap=on", remapped}} {
		b.Run(variant.name, func(b *testing.B) {
			r, err := NewRecommender(variant.idx, Params{M: 500, K: 100})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(9)
			r.Recommend(queries[0], 21)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Recommend(queries[i%len(queries)], 21)
			}
		})
	}
}

// BenchmarkBuildIndex measures the offline build: the epoch-stamped scratch
// dedup and two-pass CSR scatter keep allocations to the arena arrays
// themselves instead of one map + two slices per session/item.
func BenchmarkBuildIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, 20_000, 5_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(ds, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecommendSteadyStateZeroAlloc pins the kernel's headline property: a
// steady-state query allocates nothing on the heap.
func TestRecommendSteadyStateZeroAlloc(t *testing.T) {
	idx := benchSetup(t)
	r, err := NewRecommender(idx, Params{M: 500, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	queries := benchQueries(9)
	// Warm-up: let nbrBuf/outBuf/touched grow to their steady-state sizes.
	for _, q := range queries {
		r.Recommend(q, 21)
	}
	var i int
	allocs := testing.AllocsPerRun(200, func() {
		r.Recommend(queries[i%len(queries)], 21)
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Recommend allocates %.1f times per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		r.NeighborSessions(queries[i%len(queries)])
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state NeighborSessions allocates %.1f times per op, want 0", allocs)
	}
}

// The perfbench fixture (perfbench/fixture.go): the ecom-60m-sim profile
// under seed 1, the newest two days held out as queries, the rest indexed at
// posting capacity 500, queried at the server's defaults. Sharing it lets
// kernel microbenchmarks and socket-to-socket runs be read side by side.
const (
	fixtureProfile  = "ecom-60m-sim"
	fixtureSeed     = 1
	fixtureHeldOut  = 2
	fixtureCapacity = 500
)

// benchFixture is the indexed history and the held-out query prefixes.
type benchFixture struct {
	idx      *Index
	prefixes [][]sessions.ItemID
}

var loadFixture = sync.OnceValues(func() (*benchFixture, error) {
	cfg, err := synth.Profile(fixtureProfile)
	if err != nil {
		return nil, err
	}
	cfg.Seed = fixtureSeed
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sp := sessions.TemporalSplit(ds, fixtureHeldOut)
	idx, err := BuildIndex(sessions.Renumber(sp.Train), fixtureCapacity)
	if err != nil {
		return nil, err
	}
	f := &benchFixture{idx: idx}
	for _, s := range sp.Test.Sessions {
		for j := range s.Items {
			f.prefixes = append(f.prefixes, s.Items[:j+1])
		}
	}
	return f, nil
})

// BenchmarkRecommendFixture runs the kernel over every held-out prefix of
// the perfbench fixture at M=K=500, n=21; one op is one query, cycling
// through the prefixes in session order.
func BenchmarkRecommendFixture(b *testing.B) {
	f, err := loadFixture()
	if err != nil {
		b.Fatal(err)
	}
	prefixes := f.prefixes
	r, err := NewRecommender(f.idx, Params{M: 500, K: 500})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range prefixes {
		r.Recommend(q, 21) // warm buffer growth out of the measurement
	}
	b.Run("NeighborSessions", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.NeighborSessions(prefixes[i%len(prefixes)])
		}
	})
	b.Run("Recommend", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Recommend(prefixes[i%len(prefixes)], 21)
		}
	})
}

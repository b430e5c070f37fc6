package core

import (
	"math/rand"
	"slices"
	"testing"

	"serenade/internal/sessions"
)

// TestRankNeighborsMatchesSort checks both ranking paths against a plain
// comparison sort: merge-ordered candidates (descending id, timestamps tied
// in runs) with few distinct similarities take the counting pass, with many
// the fallback sort, and either way the K best come out in neighborBetter
// order.
func TestRankNeighborsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(300)
		k := 1 + rng.Intn(m)
		distinct := 1 + rng.Intn(2*maxScoreBuckets)
		r := &Recommender{p: Params{M: m, K: k}, topBuf: make([]Neighbor, k), bucket: make([]uint8, m)}
		ns := make([]Neighbor, 0, m)
		tm := int64(1 << 20)
		for id := 10 * m; len(ns) < m; id -= 1 + rng.Intn(10) {
			if rng.Intn(4) == 0 {
				tm -= int64(rng.Intn(3))
			}
			ns = append(ns, Neighbor{ID: sessions.SessionID(id), Score: float64(1+rng.Intn(distinct)) / 7, MaxPos: 1 + rng.Intn(9), Time: tm})
		}
		want := slices.Clone(ns)
		slices.SortFunc(want, compareNeighbors)
		got := r.rankNeighbors(ns)
		if !slices.Equal(got, want[:k]) {
			t.Fatalf("m=%d k=%d distinct<=%d:\ngot  %v\nwant %v", m, k, distinct, got, want[:k])
		}
	}
}

func TestItemAccumulatorSparseReset(t *testing.T) {
	acc := newItemAccumulator(10)
	acc.add(3, 1.5)
	acc.add(7, 2.0)
	acc.add(3, 0.5)
	if len(acc.touched) != 2 {
		t.Errorf("touched = %v, want exactly {3,7}", acc.touched)
	}
	if acc.scores[3] != 2.0 || acc.scores[7] != 2.0 {
		t.Errorf("scores = %v/%v, want 2/2", acc.scores[3], acc.scores[7])
	}
	acc.resetSparse()
	for i, s := range acc.scores {
		if s != 0 {
			t.Errorf("scores[%d] = %v after reset, want 0", i, s)
		}
	}
	if len(acc.touched) != 0 {
		t.Errorf("touched not cleared: %v", acc.touched)
	}
}

// TestRecommenderMemoryIndependentOfSessions pins the O(M + numItems) bound:
// two recommenders with the same parameters and item vocabulary must report
// the same footprint regardless of how many sessions their indexes hold.
func TestRecommenderMemoryIndependentOfSessions(t *testing.T) {
	rngA := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(12))
	dsSmall := randomDataset(rngA, 100, 50)
	dsLarge := randomDataset(rngB, 4000, 50)
	idxSmall := mustIndex(t, dsSmall, 0)
	idxLarge := mustIndex(t, dsLarge, 0)
	if idxSmall.NumItems() != idxLarge.NumItems() {
		t.Skipf("vocabularies diverged (%d vs %d)", idxSmall.NumItems(), idxLarge.NumItems())
	}
	p := Params{M: 50, K: 20}
	a := mustRecommender(t, idxSmall, p)
	b := mustRecommender(t, idxLarge, p)
	fa, fb := a.MemoryFootprint(), b.MemoryFootprint()
	if fa <= 0 || fb <= 0 {
		t.Fatalf("footprints must be positive: %d, %d", fa, fb)
	}
	if fa != fb {
		t.Errorf("footprint varies with session count: %d (100 sessions) vs %d (4000 sessions)", fa, fb)
	}
}

package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"serenade/internal/sessions"
)

// randomBatch draws a batch of evolving sessions, deliberately duplicating
// earlier entries about a third of the time (sharing the same backing slice,
// like coalesced duplicate-burst traffic) and occasionally inserting an empty
// session.
func randomBatch(rng *rand.Rand, size, vocab int) [][]sessions.ItemID {
	batch := make([][]sessions.ItemID, 0, size)
	for len(batch) < size {
		switch {
		case len(batch) > 0 && rng.Intn(3) == 0:
			batch = append(batch, batch[rng.Intn(len(batch))])
		case rng.Intn(10) == 0:
			batch = append(batch, nil)
		default:
			batch = append(batch, randomEvolving(rng, vocab))
		}
	}
	return batch
}

// assertBatchMatchesSingle runs the same batch through BatchRecommend and
// per-request Recommend and fails on any divergence. tol 0 demands exact
// (bit-identical) scores; a positive tol allows that much absolute drift.
func assertBatchMatchesSingle(t *testing.T, br *BatchRecommender, rec *Recommender, batch [][]sessions.ItemID, n int, tol float64) {
	t.Helper()
	got := br.BatchRecommend(batch, n)
	if len(got) != len(batch) {
		t.Fatalf("batch of %d returned %d results", len(batch), len(got))
	}
	for i, q := range batch {
		want := rec.Recommend(q, n)
		if len(got[i]) != len(want) {
			t.Fatalf("lane %d (query %v): batch returned %d items, single %d\nbatch:  %v\nsingle: %v",
				i, q, len(got[i]), len(want), got[i], want)
		}
		for j := range want {
			if got[i][j].Item != want[j].Item {
				t.Fatalf("lane %d (query %v): rank %d is item %d (batch) vs %d (single)",
					i, q, j, got[i][j].Item, want[j].Item)
			}
			if d := math.Abs(got[i][j].Score - want[j].Score); d > tol {
				t.Fatalf("lane %d (query %v): item %d scored %v (batch) vs %v (single), |Δ|=%g > %g",
					i, q, got[i][j].Item, got[i][j].Score, want[j].Score, d, tol)
			}
		}
	}
}

// TestBatchRecommendMatchesSingle is the batch differential property test:
// over randomized datasets, parameters, batch sizes and duplicate-laden
// batches, BatchRecommend must equal per-request Recommend lane for lane —
// exactly (score ==, tol 0) in float64 mode, and within tolerance in float32
// mode (the implementation is bit-identical there too, so the 1e-6 headroom
// is slack, not a crutch). Half the datasets have coarse, tied timestamps.
func TestBatchRecommendMatchesSingle(t *testing.T) {
	prop := func(seed int64, mSeed, kSeed, nSeed, bSeed uint8, noEarlyStop, f32, ties bool) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := makeDataset(rng, 100+rng.Intn(300), 10+rng.Intn(40), ties)
		idx, err := BuildIndex(ds, 0)
		if err != nil {
			return false
		}
		m := int(mSeed)%25 + 1
		k := int(kSeed)%m + 1
		n := int(nSeed)%30 + 1
		p := Params{M: m, K: k, DisableEarlyStopping: noEarlyStop, Float32Scores: f32}
		br, err := NewBatchRecommender(idx, p, 4)
		if err != nil {
			return false
		}
		rec, err := NewRecommender(idx, p)
		if err != nil {
			return false
		}
		tol := 0.0
		if f32 {
			tol = 1e-6
		}
		for trial := 0; trial < 6; trial++ {
			batch := randomBatch(rng, 1+rng.Intn(24), 50)
			assertBatchMatchesSingle(t, br, rec, batch, n, tol)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBatchRecommendDuplicateLanes pins in-batch dedup semantics: duplicated
// queries (same items, distinct backing slices) must return the same ranked
// output as their canonical lane and as a standalone Recommend, and the
// duplicate lanes must share the canonical lane's result slice (computed
// once, not re-derived).
func TestBatchRecommendDuplicateLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	idx := mustIndex(t, randomDataset(rng, 200, 30), 0)
	p := Params{M: 15, K: 8}
	br, err := NewBatchRecommender(idx, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := mustRecommender(t, idx, p)

	q := randomEvolving(rng, 30)
	for len(q) == 0 {
		q = randomEvolving(rng, 30)
	}
	qCopy := append([]sessions.ItemID(nil), q...)
	other := randomEvolving(rng, 30)
	batch := [][]sessions.ItemID{q, other, qCopy, q}

	got := br.BatchRecommend(batch, 10)
	want := rec.Recommend(q, 10)
	for _, lane := range []int{0, 2, 3} {
		if len(got[lane]) != len(want) {
			t.Fatalf("lane %d: %d items, want %d", lane, len(got[lane]), len(want))
		}
		for j := range want {
			if got[lane][j] != want[j] {
				t.Fatalf("lane %d rank %d: %+v, want %+v", lane, j, got[lane][j], want[j])
			}
		}
	}
	if len(want) > 0 {
		if &got[0][0] != &got[2][0] || &got[0][0] != &got[3][0] {
			t.Error("duplicate lanes did not share the canonical result slice")
		}
	}
}

// TestBatchRecommendOnRemappedIndex checks that the popularity remap is
// invisible to query semantics: batch and single-query output over the
// remapped index must equal single-query output over the original layout.
func TestBatchRecommendOnRemappedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := mustIndex(t, randomDataset(rng, 250, 40), 0)
	remapped, err := idx.RemappedByPopularity()
	if err != nil {
		t.Fatal(err)
	}
	if !remapped.Remapped() {
		t.Fatal("RemappedByPopularity returned an identity-layout index")
	}
	p := Params{M: 20, K: 10}
	base := mustRecommender(t, idx, p)
	single := mustRecommender(t, remapped, p)
	br, err := NewBatchRecommender(remapped, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		batch := randomBatch(rng, 8, 40)
		got := br.BatchRecommend(batch, 10)
		for i, q := range batch {
			want := base.Recommend(q, 10)
			alsoSingle := single.Recommend(q, 10)
			if len(got[i]) != len(want) || len(alsoSingle) != len(want) {
				t.Fatalf("query %v: lengths diverge (batch %d, remapped single %d, original %d)",
					q, len(got[i]), len(alsoSingle), len(want))
			}
			for j := range want {
				if got[i][j] != want[j] || alsoSingle[j] != want[j] {
					t.Fatalf("query %v rank %d: batch %+v / remapped %+v, want %+v",
						q, j, got[i][j], alsoSingle[j], want[j])
				}
			}
		}
	}
}

// TestCloneAndLaneIsolation audits the scratch-state sharing rules the
// serving pool and batcher rely on: Clone must share nothing mutable with its
// origin, and the results of distinct batch lanes must not alias each other.
func TestCloneAndLaneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := mustIndex(t, randomDataset(rng, 150, 25), 0)
	p := Params{M: 12, K: 6}
	rec := mustRecommender(t, idx, p)
	clone := rec.Clone()
	if clone.acc == rec.acc || &clone.nbrBuf[:1][0] == &rec.nbrBuf[:1][0] ||
		&clone.topBuf[0] == &rec.topBuf[0] || &clone.bucket[0] == &rec.bucket[0] {
		t.Fatal("Clone shares mutable kernel state with its origin")
	}
	br, err := NewBatchRecommender(idx, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if br.rec == rec || br.rec.acc == rec.acc {
		t.Fatal("batch recommender shares kernel state with an unrelated recommender")
	}
	for trial := 0; trial < 20; trial++ {
		batch := [][]sessions.ItemID{randomEvolving(rng, 25), randomEvolving(rng, 25), randomEvolving(rng, 25)}
		got := br.BatchRecommend(batch, 5)
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				if len(got[i]) > 0 && len(got[j]) > 0 && &got[i][0] == &got[j][0] && !slices.Equal(batch[i], batch[j]) {
					t.Fatalf("lanes %d and %d share a result buffer for different queries", i, j)
				}
			}
		}
	}
}

// TestBatchRecommendConcurrentExecutors hammers independent BatchRecommenders
// over one shared index from many goroutines (run under -race via the race
// suite): the index must be read-only to the kernel, and every concurrent
// batch must still match a private single-query recommender.
func TestBatchRecommendConcurrentExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx := mustIndex(t, randomDataset(rng, 300, 35), 0)
	p := Params{M: 20, K: 10}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			br, err := NewBatchRecommender(idx, p, 16)
			if err != nil {
				t.Error(err)
				return
			}
			rec, err := NewRecommender(idx, p)
			if err != nil {
				t.Error(err)
				return
			}
			for trial := 0; trial < 30; trial++ {
				batch := randomBatch(wrng, 1+wrng.Intn(16), 35)
				got := br.BatchRecommend(batch, 10)
				for i, q := range batch {
					want := rec.Recommend(q, 10)
					if len(got[i]) != len(want) {
						t.Errorf("worker batch diverged on query %v: %d vs %d items", q, len(got[i]), len(want))
						return
					}
					for j := range want {
						if got[i][j] != want[j] {
							t.Errorf("worker batch diverged on query %v rank %d: %+v vs %+v", q, j, got[i][j], want[j])
							return
						}
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
}

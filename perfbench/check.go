package main

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"serenade/internal/core"
	"serenade/internal/index"
	"serenade/internal/kvstore"
	"serenade/internal/obs/quality"
	"serenade/internal/rank"
	"serenade/internal/serving"
	"serenade/internal/sessions"
	"serenade/internal/trending"
)

// validate checks one served list against the response contract: a full
// slot of distinct items, none of them the item being viewed, every id in
// the catalog, and kNN scores non-increasing up to the zero-score
// popularity padding, which only follows them.
func validate(items []core.ScoredItem, current sessions.ItemID, numItems int) error {
	if len(items) != slot {
		return fmt.Errorf("%d items, want %d", len(items), slot)
	}
	seen := make(map[sessions.ItemID]struct{}, len(items))
	padding := false
	for i, it := range items {
		if it.Item == current {
			return fmt.Errorf("item %d is the current item", it.Item)
		}
		if int(it.Item) >= numItems {
			return fmt.Errorf("item %d outside the catalog of %d", it.Item, numItems)
		}
		if _, dup := seen[it.Item]; dup {
			return fmt.Errorf("item %d listed twice", it.Item)
		}
		seen[it.Item] = struct{}{}
		switch {
		case !(it.Score >= 0):
			return fmt.Errorf("item %d has score %v", it.Item, it.Score)
		case it.Score == 0:
			padding = true
		case padding:
			return fmt.Errorf("scored item %d follows the zero-score padding", it.Item)
		case i > 0 && it.Score > items[i-1].Score:
			return fmt.Errorf("score rises at position %d", i+1)
		}
	}
	return nil
}

// shippedConfig is serenade-server's configuration at its shipped flag
// defaults, plus the workload's store directory and quality variant. The
// reference and the traced run use it so their lists match the server's.
func shippedConfig(w workload, storeDir string) serving.Config {
	cfg := serving.Config{
		Params:              core.Params{M: 500, K: 500},
		Recommendations:     slot,
		SessionTTL:          30 * time.Minute,
		StoreDir:            storeDir,
		WALSync:             kvstore.SyncInterval,
		WALSyncInterval:     kvstore.DefaultSyncInterval,
		IdempotencyTTL:      2 * time.Minute,
		Catalog:             serving.NewCatalog(),
		FallbackToPopular:   true,
		Trending:            trending.New(2*time.Hour, nil),
		SlowQueryThreshold:  25 * time.Millisecond,
		TraceRingSize:       256,
		TraceSampleEvery:    16,
		Logger:              slog.New(slog.NewTextHandler(io.Discard, nil)),
		SLOLatencyThreshold: 50 * time.Millisecond,
		SLOErrorBudget:      0.001,
	}
	if w.qualityVariant != "" {
		cfg.Quality = &quality.Options{Variant: w.qualityVariant}
	}
	return cfg
}

// reciprocalRank is 1/rank of the recorded next click within the first
// mrrCutoff items, 0 when absent or when the click has no successor.
func reciprocalRank(r request, items []core.ScoredItem) float64 {
	if !r.HasNext {
		return 0
	}
	return rank.Reciprocal(rank.RankOfScored(items, r.Next, mrrCutoff))
}

// referenceCheck replays the phase in schedule order (which keeps every
// session's clicks in order) through an in-process serving.Server with the
// server's configuration, and compares each served list with the
// reference's. It returns the number of mismatching lists among the served
// ones, and MRR@20 of the served and of the reference lists over the
// labelled requests that were served. A request that failed has no list to
// check; it counts against success_ratio instead.
func referenceCheck(indexPath string, w workload, ps phaseStream, served [][]core.ScoredItem) (mismatch int, mrrServed, mrrRef float64, err error) {
	idx, err := index.LoadFile(indexPath)
	if err != nil {
		return 0, 0, 0, err
	}
	defer idx.Close()
	cfg := shippedConfig(w, "")
	// The reference only needs the lists; durability and feedback do not
	// shape them.
	cfg.Quality = nil
	ref, err := serving.NewServer(idx, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer ref.Close()
	labelled := 0
	var sumServed, sumRef float64
	for i, got := range served {
		r, _ := ps.at(i)
		resp, err := ref.Recommend(serving.Request{SessionKey: ps.key(i), Item: r.Item, Consent: r.Consent})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("reference request %d: %w", i, err)
		}
		if got != nil && !sameList(got, resp.Items) {
			mismatch++
		}
		if r.HasNext && got != nil {
			labelled++
			sumServed += reciprocalRank(r, got)
			sumRef += reciprocalRank(r, resp.Items)
		}
	}
	if labelled > 0 {
		mrrServed, mrrRef = sumServed/float64(labelled), sumRef/float64(labelled)
	}
	return mismatch, mrrServed, mrrRef, nil
}

func sameList(a, b []core.ScoredItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package core

import (
	"slices"

	"serenade/internal/sessions"
)

// BatchRecommender executes up to B concurrent VMIS-kNN queries as one batch.
// Each distinct query runs the single-query kernel once; identical queries in
// one batch (duplicate-burst traffic) are computed once and share the
// canonical lane's result slice. Because every lane runs exactly the
// Recommend code path, BatchRecommend is bit-identical to per-request
// Recommend in both float64 and float32 modes by construction (pinned by
// TestBatchRecommendMatchesSingle).
//
// The batch owns one Recommender plus a result buffer per lane, so batch
// memory is O(M + numItems + B·n), not O(B·numItems).
//
// A BatchRecommender reuses internal buffers across calls and is NOT safe for
// concurrent use; the serving layer pools one per worker. Results alias those
// buffers (and duplicates alias each other) and are valid, read-only, until
// the next call.
type BatchRecommender struct {
	rec     *Recommender
	queries [][]sessions.ItemID // truncated query of each lane
	outs    [][]ScoredItem      // per-lane result storage
	results [][]ScoredItem
}

// NewBatchRecommender validates the parameters and returns a batch executor
// pre-sized for maxBatch lanes (further lanes are grown on demand). Like
// NewRecommender it is bound to one index generation.
func NewBatchRecommender(idx *Index, p Params, maxBatch int) (*BatchRecommender, error) {
	rec, err := NewRecommender(idx, p)
	if err != nil {
		return nil, err
	}
	return &BatchRecommender{
		rec:     rec,
		queries: make([][]sessions.ItemID, 0, maxBatch),
		outs:    make([][]ScoredItem, maxBatch),
		results: make([][]ScoredItem, 0, maxBatch),
	}, nil
}

// Params returns the batch recommender's (defaulted) parameters.
func (b *BatchRecommender) Params() Params { return b.rec.p }

// Index returns the underlying index.
func (b *BatchRecommender) Index() *Index { return b.rec.idx }

// MemoryFootprint estimates the batch executor's buffer size in bytes: one
// recommender's kernel buffers plus the per-lane result buffers.
func (b *BatchRecommender) MemoryFootprint() int64 {
	total := b.rec.MemoryFootprint()
	for _, out := range b.outs {
		total += int64(cap(out)) * 16
	}
	return total
}

// BatchRecommend computes top-n recommendations for every evolving session in
// the batch. Element i of the result corresponds to batch[i], ordered by
// descending score with ties toward smaller item ids — exactly what
// Recommend(batch[i], n) returns (nil for empty sessions or n <= 0). The
// result and its element slices alias reused buffers (duplicate queries share
// one slice) and are valid, read-only, until the next call.
func (b *BatchRecommender) BatchRecommend(batch [][]sessions.ItemID, n int) [][]ScoredItem {
	res := b.results[:0]
	for range batch {
		res = append(res, nil)
	}
	b.results = res
	if n <= 0 || len(batch) == 0 {
		return res
	}
	for len(b.outs) < len(batch) {
		b.outs = append(b.outs, nil)
	}
	queries := b.queries[:0]
	for i, evolving := range batch {
		q := b.rec.truncate(evolving)
		queries = append(queries, q)
		if len(q) == 0 {
			continue
		}
		// The first earlier lane with an equal query computed it already.
		dup := slices.IndexFunc(queries[:i], func(prev []sessions.ItemID) bool { return slices.Equal(prev, q) })
		if dup >= 0 {
			res[i] = res[dup]
		} else if out := b.rec.Recommend(q, n); out != nil {
			b.outs[i] = append(b.outs[i][:0], out...)
			res[i] = b.outs[i]
		}
	}
	b.queries = queries // retain grown storage
	return res
}

package core

import "serenade/internal/sessions"

// This file holds the dense data structures and total orders behind the
// zero-allocation VMIS-kNN query kernel (see DESIGN.md §7). The index hands
// out dense integer item identifiers, so the item score accumulator of
// Algorithm 2 needs none of the hashing, bucket chasing and incremental
// growth of Go's built-in maps: it is a flat []float64 over the dense
// item-id space with a touched-list for sparse O(hits) reset.

// neighborBetter reports whether a ranks strictly before b in the descending
// neighbour order: higher similarity first, then the more recent session —
// later time, then larger session id. Recency is the same total order
// (time, id) everywhere a kernel compares sessions, which is what makes the
// merge kernel and the heap-based reference select and rank identically
// (Algorithm 2 lines 37-38, with the id tiebreak).
func neighborBetter(a, b Neighbor) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Time != b.Time {
		return a.Time > b.Time
	}
	return a.ID > b.ID
}

// compareNeighbors is neighborBetter as a slices.SortFunc comparison.
func compareNeighbors(a, b Neighbor) int {
	switch {
	case neighborBetter(a, b):
		return -1
	case neighborBetter(b, a):
		return 1
	}
	return 0
}

// scoredItemBetter reports whether a ranks strictly before b in the output
// order: higher score first, smaller item id first on ties (the
// deterministic order Recommend documents).
func scoredItemBetter(a, b ScoredItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Item < b.Item
}

// selectTopScoredItems partially partitions out so its first n elements are
// the n best under scoredItemBetter, in arbitrary order (quickselect with
// median-of-three pivots): selecting n of m scored items costs O(m + n log n)
// comparisons through a direct, inlinable comparison instead of O(m log n)
// through a heap's indirect less function.
func selectTopScoredItems(out []ScoredItem, n int) {
	lo, hi := 0, len(out)-1
	for lo < hi {
		p := partitionScoredItems(out, lo, hi)
		switch {
		case p == n-1:
			return
		case p < n-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partitionScoredItems(out []ScoredItem, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if scoredItemBetter(out[mid], out[lo]) {
		out[lo], out[mid] = out[mid], out[lo]
	}
	if scoredItemBetter(out[hi], out[mid]) {
		out[mid], out[hi] = out[hi], out[mid]
		if scoredItemBetter(out[mid], out[lo]) {
			out[lo], out[mid] = out[mid], out[lo]
		}
	}
	out[mid], out[hi] = out[hi], out[mid]
	pivot := out[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if scoredItemBetter(out[j], pivot) {
			out[i], out[j] = out[j], out[i]
			i++
		}
	}
	out[i], out[hi] = out[hi], out[i]
	return i
}

// itemAccumulator is the flat item-scoring accumulator: a dense score array
// over the item-id space plus the list of touched items, so a query resets
// only what it wrote (O(distinct scored items), not O(numItems)). Exactly
// one of the two score arrays is allocated, selected by
// Params.Float32Scores: the float32 array halves the accumulator's memory
// traffic (the dominant random-access structure of the scoring stage) at
// ~7 significant digits of score precision.
type itemAccumulator struct {
	scores   []float64
	scores32 []float32
	touched  []sessions.ItemID
}

func newItemAccumulator(numItems int, float32Scores bool) *itemAccumulator {
	if float32Scores {
		return &itemAccumulator{scores32: make([]float32, numItems)}
	}
	return &itemAccumulator{scores: make([]float64, numItems)}
}

// add accumulates a strictly positive contribution for an item (float64
// mode). Zero contributions must be filtered by the caller: a zero score is
// how the accumulator recognises a first touch.
func (a *itemAccumulator) add(item sessions.ItemID, v float64) {
	if a.scores[item] == 0 {
		a.touched = append(a.touched, item)
	}
	a.scores[item] += v
}

// add32 is add for the float32 accumulator. The contribution is computed in
// float64 and rounded once per add, so the only precision loss is the
// accumulator width itself.
func (a *itemAccumulator) add32(item sessions.ItemID, v float64) {
	if a.scores32[item] == 0 {
		a.touched = append(a.touched, item)
	}
	a.scores32[item] += float32(v)
}

// resetSparse zeroes exactly the entries written since the last reset.
func (a *itemAccumulator) resetSparse() {
	if a.scores32 != nil {
		for _, item := range a.touched {
			a.scores32[item] = 0
		}
	} else {
		for _, item := range a.touched {
			a.scores[item] = 0
		}
	}
	a.touched = a.touched[:0]
}

// footprint reports the accumulator's in-memory size in bytes.
func (a *itemAccumulator) footprint() int64 {
	return int64(len(a.scores))*8 + int64(len(a.scores32))*4 + int64(cap(a.touched))*4
}

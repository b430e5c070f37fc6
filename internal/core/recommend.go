package core

import (
	"slices"

	"serenade/internal/sessions"
)

// Neighbor is one of the k historical sessions most similar to the evolving
// session.
type Neighbor struct {
	ID sessions.SessionID
	// Score is the decayed dot-product similarity r_n accumulated during
	// the item intersection loop.
	Score float64
	// MaxPos is the 1-based insertion position (within the truncated
	// evolving session) of the most recent item shared with this neighbour,
	// the argument of the match weight λ.
	MaxPos int
	// Time is the neighbour session's timestamp, used for tie-breaking.
	Time int64
}

// Recommender executes VMIS-kNN queries against an Index. Neighbour
// selection is a k-way merge of the tail items' posting lists (see
// NeighborSessions); item scoring runs in a flat array over the dense
// item-id space (see kernel.go); and every per-query temporary is reused, so
// a steady-state query performs zero heap allocations. Per-Recommender
// memory is O(M + numItems) — independent of the number of indexed
// sessions.
//
// A Recommender reuses internal buffers across calls and is therefore NOT
// safe for concurrent use; create one per goroutine with Clone (the index
// itself is shared and immutable). The heap-based Algorithm 2 it replaced is
// retained as ReferenceRecommender for differential testing.
type Recommender struct {
	idx *Index
	p   Params

	seen   []sessions.ItemID // distinct evolving items (duplicate check)
	curs   []postingCursor   // merge cursors, most recent evolving item first
	nbrBuf []Neighbor        // the M most recent candidates, in merge order
	topBuf []Neighbor        // the K best candidates, in rank order
	bucket []uint8           // score bucket of each candidate (counting pass)
	acc    *itemAccumulator
	outBuf []ScoredItem
}

// postingCursor is one input of the neighbour merge: the unconsumed rest of
// a tail item's posting list, with the item's decay weight and its 1-based
// position in the truncated evolving session.
type postingCursor struct {
	list []sessions.SessionID
	pi   float64
	pos  int
}

// NewRecommender validates the parameters and returns a query executor. Its
// buffers are sized from the index (flat score array over the item-id
// space) and the parameters (M candidates), so construct it — or Clone a
// prototype — per index generation.
func NewRecommender(idx *Index, p Params) (*Recommender, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if idx.capacity > 0 && p.M > idx.capacity {
		return nil, errMExceedsCapacity(p.M, idx.capacity)
	}
	p = p.withDefaults()
	return &Recommender{
		idx:    idx,
		p:      p,
		seen:   make([]sessions.ItemID, 0, p.MaxSessionLength),
		curs:   make([]postingCursor, 0, p.MaxSessionLength),
		nbrBuf: make([]Neighbor, 0, p.M),
		topBuf: make([]Neighbor, p.K),
		bucket: make([]uint8, p.M),
		acc:    newItemAccumulator(idx.numItems, p.Float32Scores),
	}, nil
}

// Clone returns an independent Recommender sharing the same immutable index,
// for use from another goroutine. The clone gets fresh kernel buffers sized
// from the index, which is what the serving layer's per-generation pool
// relies on.
func (r *Recommender) Clone() *Recommender {
	c, err := NewRecommender(r.idx, r.p)
	if err != nil {
		// The parameters were validated when r was constructed.
		panic("core: Clone failed: " + err.Error())
	}
	return c
}

// Params returns the recommender's (defaulted) parameters.
func (r *Recommender) Params() Params { return r.p }

// Index returns the underlying index.
func (r *Recommender) Index() *Index { return r.idx }

// MemoryFootprint estimates the recommender's per-goroutine kernel buffer
// size in bytes — the Index.MemoryFootprint counterpart for query state. It
// is O(M + numItems) by construction: the merge cursors scale with the
// session window, the candidate buffers with M and K, the flat score array
// with the item vocabulary, and nothing with the number of indexed sessions.
func (r *Recommender) MemoryFootprint() int64 {
	var b int64
	b += r.acc.footprint()
	b += int64(cap(r.seen)) * 4
	b += int64(cap(r.curs)) * 40   // postingCursor: slice header, pi, pos
	b += int64(cap(r.nbrBuf)) * 32 // merge output (≤ M)
	b += int64(cap(r.topBuf)) * 32 // ranked neighbours (≤ K)
	b += int64(cap(r.bucket))
	b += int64(cap(r.outBuf)) * 16 // output collect/result buffer: ScoredItem
	return b
}

// truncate returns the most recent MaxSessionLength items of the evolving
// session.
func (r *Recommender) truncate(evolving []sessions.ItemID) []sessions.ItemID {
	if len(evolving) > r.p.MaxSessionLength {
		return evolving[len(evolving)-r.p.MaxSessionLength:]
	}
	return evolving
}

// seenBefore reports whether item already occurred (at a more recent
// position) in this query's window. A linear scan over at most
// MaxSessionLength entries beats any hashed structure at this size and
// allocates nothing.
func (r *Recommender) seenBefore(item sessions.ItemID) bool {
	for _, s := range r.seen {
		if s == item {
			return true
		}
	}
	return false
}

// NeighborSessions computes the k most similar historical sessions for the
// evolving session — the function neighbor_sessions_from_index of
// Algorithm 2. The returned slice is ordered most similar first and is
// valid until the next call on this Recommender.
//
// Algorithm 2 keeps the M most recent sessions sharing an item with the
// evolving session, using a recency heap and early stopping. Posting lists
// hold session ids in descending order and ids ascend with time (both
// checked by NewIndexFromCSR), so that sample is exactly the first M
// distinct ids of a merge of the tail items' posting lists, and no heap,
// table or eviction is needed. See DESIGN.md §7 for the equivalence.
func (r *Recommender) NeighborSessions(evolving []sessions.ItemID) []Neighbor {
	s := r.truncate(evolving)
	length := len(s)

	// One cursor per distinct tail item, most recent position first: that
	// is the order Algorithm 2 visits the lists, so a candidate's first
	// cursor gives its most recent shared position, and summing pi in
	// cursor order reproduces its float additions exactly.
	r.seen = r.seen[:0]
	curs := r.curs[:0]
	for pos := length; pos >= 1; pos-- {
		item := s[pos-1]
		if r.seenBefore(item) {
			continue
		}
		r.seen = append(r.seen, item)
		if postings := r.idx.Postings(item); len(postings) > 0 {
			curs = append(curs, postingCursor{list: postings, pi: r.p.Decay(pos, length), pos: pos})
		}
	}
	r.curs = curs
	return r.rankNeighbors(r.mergeRecent(curs))
}

// mergeRecent merges the cursors' posting lists, largest id first, until it
// has taken M distinct sessions. The candidates come out most recent first.
// It consumes the cursors; the result aliases the reused neighbour buffer.
func (r *Recommender) mergeRecent(curs []postingCursor) []Neighbor {
	ns := r.nbrBuf[:0]
	times := r.idx.times
	for len(curs) > 1 && len(ns) < r.p.M {
		id := curs[0].list[0]
		for c := 1; c < len(curs); c++ {
			if head := curs[c].list[0]; head > id {
				id = head
			}
		}
		nb := Neighbor{ID: id, Time: times[id]}
		exhausted := false
		for c := range curs {
			cu := &curs[c]
			if cu.list[0] != id {
				continue
			}
			if nb.MaxPos == 0 {
				nb.Score, nb.MaxPos = cu.pi, cu.pos
			} else {
				nb.Score += cu.pi
			}
			cu.list = cu.list[1:]
			exhausted = exhausted || len(cu.list) == 0
		}
		if exhausted {
			curs = slices.DeleteFunc(curs, func(cu postingCursor) bool { return len(cu.list) == 0 })
		}
		ns = append(ns, nb)
	}
	// A single remaining list needs no merging: its next ids are the next
	// candidates, each scored by that list alone.
	if len(curs) == 1 {
		cu := curs[0]
		for _, id := range cu.list[:min(len(cu.list), r.p.M-len(ns))] {
			ns = append(ns, Neighbor{ID: id, Score: cu.pi, MaxPos: cu.pos, Time: times[id]})
		}
	}
	r.nbrBuf = ns // retain grown storage for the next query
	return ns
}

// maxScoreBuckets bounds the distinct similarities rankNeighbors orders by
// counting. A similarity is a sum of decay weights over a subset of the
// tail items, so real queries have a few dozen at most.
const maxScoreBuckets = 64

// rankNeighbors returns the K best candidates of ns in neighborBetter order.
// ns is most recent first, so a stable counting pass over the distinct
// similarities yields that order without comparing candidates: equal
// similarities keep the merge's recency order. Queries with more distinct
// similarities than maxScoreBuckets (or a NaN one) fall back to a
// comparison sort. The result aliases a reused buffer.
func (r *Recommender) rankNeighbors(ns []Neighbor) []Neighbor {
	var (
		vals   [maxScoreBuckets]float64
		counts [maxScoreBuckets]int
		nv, b  int
	)
	bucket := r.bucket[:len(ns)]
	for i := range ns {
		score := ns[i].Score
		if nv == 0 || vals[b] != score {
			for b = 0; b < nv && vals[b] != score; b++ {
			}
			if b == nv {
				if nv == maxScoreBuckets || score != score {
					return r.sortNeighbors(ns)
				}
				vals[nv] = score
				nv++
			}
		}
		counts[b]++
		bucket[i] = uint8(b)
	}

	// Order the buckets by descending similarity (insertion sort over at
	// most maxScoreBuckets entries), then turn counts into start offsets.
	var order, start [maxScoreBuckets]int
	for i := 0; i < nv; i++ {
		j := i
		for ; j > 0 && vals[order[j-1]] < vals[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	off := 0
	for _, o := range order[:nv] {
		start[o] = off
		off += counts[o]
	}

	out := r.topBuf[:min(r.p.K, len(ns))]
	for i := range ns {
		o := bucket[i]
		if p := start[o]; p < len(out) {
			out[p] = ns[i]
			start[o] = p + 1
		}
	}
	return out
}

// sortNeighbors is rankNeighbors' comparison-sort fallback.
func (r *Recommender) sortNeighbors(ns []Neighbor) []Neighbor {
	slices.SortFunc(ns, compareNeighbors)
	return ns[:min(r.p.K, len(ns))]
}

// Recommend computes the top-n next-item recommendations for the evolving
// session (most recent click last). The result is ordered by descending
// score with ties broken toward smaller item ids for determinism; it is
// valid until the next call on this Recommender.
func (r *Recommender) Recommend(evolving []sessions.ItemID, n int) []ScoredItem {
	if n <= 0 || len(evolving) == 0 {
		return nil
	}
	return r.ScoreNeighbors(r.NeighborSessions(evolving), n)
}

// ScoreNeighbors runs the scoring half of Recommend against an
// already-selected neighbour set. It is split out so the serving layer can
// attribute index lookup (NeighborSessions) and item scoring separately in
// per-request traces; Recommend is exactly NeighborSessions followed by
// ScoreNeighbors. The same validity rules apply: the result aliases reused
// buffers and holds until the next call on this Recommender.
func (r *Recommender) ScoreNeighbors(neighbors []Neighbor, n int) []ScoredItem {
	if n <= 0 || len(neighbors) == 0 {
		return nil
	}

	// Item scoring (Algorithm 2 line 6-7, with the §3 simplifications):
	// d_i = Σ_n 1_n(i) · λ(maxPos_n) · r_n · log(|H|/h_i), accumulated in
	// the flat array. Zero contributions (idf 0) are skipped — they cannot
	// change a score, and the accumulator needs first touches to be
	// strictly positive. The float32 mode duplicates the two-line loop body
	// rather than branching per contribution: the accumulator store is the
	// hot instruction here.
	if r.p.Float32Scores {
		for _, nb := range neighbors {
			w := r.p.MatchWeight(nb.MaxPos) * nb.Score
			if w == 0 {
				continue
			}
			for _, item := range r.idx.SessionItems(nb.ID) {
				if v := w * r.idx.idf[item]; v != 0 {
					r.acc.add32(item, v)
				}
			}
		}
	} else {
		for _, nb := range neighbors {
			w := r.p.MatchWeight(nb.MaxPos) * nb.Score
			if w == 0 {
				continue
			}
			for _, item := range r.idx.SessionItems(nb.ID) {
				if v := w * r.idx.idf[item]; v != 0 {
					r.acc.add(item, v)
				}
			}
		}
	}

	// Output stage: collect the touched positive scores into the reused
	// buffer, quickselect the n best, and sort them. The buffer is shared
	// across calls regardless of n, so callers alternating output lengths
	// (e.g. A/B arms sharing a pool) never reallocate output state.
	out := r.outBuf[:0]
	if r.p.Float32Scores {
		for _, item := range r.acc.touched {
			if score := r.acc.scores32[item]; score > 0 {
				out = append(out, ScoredItem{Item: item, Score: float64(score)})
			}
		}
	} else {
		for _, item := range r.acc.touched {
			if score := r.acc.scores[item]; score > 0 {
				out = append(out, ScoredItem{Item: item, Score: score})
			}
		}
	}
	r.acc.resetSparse()
	r.outBuf = out // retain grown storage for the next query
	if len(out) == 0 {
		return nil
	}
	if len(out) > n {
		selectTopScoredItems(out, n)
		out = out[:n]
	}
	slices.SortFunc(out, func(a, b ScoredItem) int {
		if scoredItemBetter(a, b) {
			return -1
		}
		if scoredItemBetter(b, a) {
			return 1
		}
		return 0
	})
	return out
}

// scoredItemLess orders output candidates weakest-first: lower score first;
// equal scores order the larger item id first so that DrainDescending yields
// ascending item ids within a tie.
func scoredItemLess(a, b ScoredItem) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}

// Package core implements VMIS-kNN (Vector-Multiplication-Indexed-Session
// k-nearest-neighbours), the paper's primary contribution: an index-based
// adaptation of the VS-kNN session recommender that computes next-item
// recommendations in microseconds by jointly executing the item/session join
// and the two aggregations (recency sampling and similarity top-k) over a
// prebuilt inverted index, without materialising intermediate results.
package core

import "serenade/internal/sessions"

// DecayFunc weights an item by its 1-based insertion position pos in an
// evolving session of the given length (the function π of the paper).
type DecayFunc func(pos, length int) float64

// LinearDecay is the paper's default π: position divided by session length,
// so the most recent item has weight 1 and the oldest 1/length.
func LinearDecay(pos, length int) float64 {
	if length <= 0 {
		return 0
	}
	return float64(pos) / float64(length)
}

// QuadraticDecay emphasises recent items more strongly than LinearDecay.
// It is one of the alternative decay hyperparameters tuned in VS-kNN.
func QuadraticDecay(pos, length int) float64 {
	if length <= 0 {
		return 0
	}
	f := float64(pos) / float64(length)
	return f * f
}

// MatchWeightFunc weights a neighbour session by the insertion position of
// its most recent item shared with the evolving session (the function λ of
// the paper).
type MatchWeightFunc func(pos int) float64

// LinearMatchWeight is the paper's default λ: 1 − 0.1·pos for positions
// below 10 and zero otherwise (§2, toy example: λ(3) = 0.7).
func LinearMatchWeight(pos int) float64 {
	if pos < 10 {
		return 1 - 0.1*float64(pos)
	}
	return 0
}

// ConstantMatchWeight ignores the match position.
func ConstantMatchWeight(int) float64 { return 1 }

// Params are the VMIS-kNN hyperparameters.
type Params struct {
	// M is the recency sample size: how many of the most recent historical
	// sessions sharing an item with the evolving session are considered.
	M int
	// K is the number of nearest neighbour sessions used for scoring.
	K int
	// MaxSessionLength caps how many of the most recent evolving-session
	// items participate in the similarity computation (the paper caps this
	// so that query latency is bounded). Zero means DefaultMaxSessionLength.
	MaxSessionLength int
	// Decay is the position decay π; nil means LinearDecay.
	Decay DecayFunc
	// MatchWeight is the neighbour match weight λ; nil means
	// LinearMatchWeight.
	MatchWeight MatchWeightFunc
	// HeapArity is the branching factor of the recency and top-k heaps.
	// The paper uses octonary heaps (8) as a micro-optimisation; the
	// VMIS-kNN-no-opt baseline uses binary heaps (2). Zero means 8. It
	// applies only to the heap-based kernels (ReferenceRecommender and the
	// compressed and incremental recommenders); Recommender merges posting
	// lists and has no heap, so it ignores the field.
	HeapArity int
	// DisableEarlyStopping turns off the posting-list early-stop
	// optimisation; used only by the VMIS-kNN-no-opt baseline of §5.1.3.
	// Like HeapArity it applies only to the heap-based kernels: the merge
	// in Recommender reads each list only as far as the M-th distinct
	// session, and its result does not depend on the field.
	DisableEarlyStopping bool
}

// DefaultMaxSessionLength bounds the number of evolving-session items
// considered. Positions at or beyond 10 receive a zero default match weight,
// so longer histories add latency without adding signal.
const DefaultMaxSessionLength = 9

// withDefaults normalises zero-valued fields.
func (p Params) withDefaults() Params {
	if p.MaxSessionLength <= 0 {
		p.MaxSessionLength = DefaultMaxSessionLength
	}
	if p.Decay == nil {
		p.Decay = LinearDecay
	}
	if p.MatchWeight == nil {
		p.MatchWeight = LinearMatchWeight
	}
	if p.HeapArity == 0 {
		p.HeapArity = 8
	}
	return p
}

// Validate reports whether the parameters are usable against the index.
func (p Params) Validate() error {
	if p.M < 1 {
		return errBadParam("M", p.M)
	}
	if p.K < 1 {
		return errBadParam("K", p.K)
	}
	if p.K > p.M {
		return errKExceedsM(p.K, p.M)
	}
	if p.HeapArity < 0 || p.HeapArity == 1 {
		return errBadParam("HeapArity", p.HeapArity)
	}
	return nil
}

// ScoredItem is one recommended item with its VMIS-kNN score.
type ScoredItem struct {
	Item  sessions.ItemID
	Score float64
}

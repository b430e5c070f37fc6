package obs

import (
	"time"
)

// Stage identifies one timed segment of a request. The taxonomy follows the
// serving pipeline of §4: read/update the evolving session in the local
// store, select candidate neighbour sessions from the index, score their
// items, apply the business-rule filters, and serialise the response. A
// cross-shard hop through the cluster proxy is attributed to StageProxy.
type Stage uint8

const (
	StageStore      Stage = iota // session-store read + update
	StageCandidates              // VMIS-kNN neighbour sampling (index lookup)
	StageScore                   // item scoring + top-k selection
	StageFilter                  // business rules + popularity fallback
	StageEncode                  // response serialisation
	StageProxy                   // cross-shard proxy hop
	NumStages
)

var stageNames = [NumStages]string{
	"store", "candidates", "score", "filter", "encode", "proxy",
}

// String returns the stage's stable, scrape-friendly name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// SpanFlags annotate how a request was served — its result-cache outcome —
// as a bitmask so pooled spans stay allocation-free.
type SpanFlags uint8

const (
	// FlagCacheHit marks a request served straight from the result cache.
	FlagCacheHit SpanFlags = 1 << iota
	// FlagCacheMiss marks a request that missed the result cache.
	FlagCacheMiss
	// FlagCacheLeader marks the single-flight leader that computed the
	// cache entry other requests coalesced onto.
	FlagCacheLeader
	// FlagCacheWaiter marks a request that coalesced onto a leader's
	// in-flight computation instead of scoring itself.
	FlagCacheWaiter
)

var flagNames = []struct {
	f    SpanFlags
	name string
}{
	{FlagCacheHit, "cache_hit"},
	{FlagCacheMiss, "cache_miss"},
	{FlagCacheLeader, "cache_leader"},
	{FlagCacheWaiter, "cache_waiter"},
}

// Names expands the bitmask into stable, scrape-friendly strings.
func (f SpanFlags) Names() []string {
	if f == 0 {
		return nil
	}
	out := make([]string, 0, 3)
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// String renders the flags comma-joined, "-" when none are set; it is the
// zero-alloc-friendly form the slow-query log uses.
func (f SpanFlags) String() string {
	if f == 0 {
		return "-"
	}
	s := ""
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			if s != "" {
				s += ","
			}
			s += fn.name
		}
	}
	return s
}

// Span is one request's trace record: identity, wall-clock start, and
// monotonic per-stage durations. Spans are created by a Tracer, carried
// through the request path, and handed back via Tracer.Finish, after which
// the span must not be touched (it is pooled).
type Span struct {
	TraceID  string
	SpanID   string
	ParentID string // parent span id when the trace was propagated to us
	Op       string
	// RequestID is the id echoed to the caller in X-Request-Id (the inbound
	// header when the caller supplied one, else the trace id). It joins an
	// attributed recommendation-quality record back to its span in the
	// slow-query log and the error-tier trace ring.
	RequestID string

	Start  time.Time
	Total  time.Duration
	Stages [NumStages]time.Duration
	Error  string // error class, empty on success

	// Flags annotate the result-cache outcome.
	Flags SpanFlags

	// cursor is the end of the last attributed segment; Cut advances it.
	cursor time.Time
}

// AddFlags ORs annotation flags into the span.
func (sp *Span) AddFlags(f SpanFlags) { sp.Flags |= f }

// Cut attributes the time since the previous Cut (or since Start) to the
// given stage and advances the cursor, so consecutive cuts partition the
// request wall time without gaps: the stage durations of a fully-cut span
// sum to its total, which is what makes a trace trustworthy for tail
// attribution.
func (sp *Span) Cut(st Stage) {
	now := nowMono()
	sp.Stages[st] += now.Sub(sp.cursor)
	sp.cursor = now
}

// Skip advances the cursor without attributing the elapsed segment to any
// stage — for bookkeeping the trace should not bill to the next stage.
func (sp *Span) Skip() {
	sp.cursor = nowMono()
}

// Observe adds an externally measured duration to a stage (used by the
// proxy tier, whose hop time is measured around a whole downstream call).
func (sp *Span) Observe(st Stage, d time.Duration) {
	if d > 0 {
		sp.Stages[st] += d
	}
}

// SetError records the request's error class (e.g. "store", "bad_request").
func (sp *Span) SetError(class string) { sp.Error = class }

// End freezes the span's total duration. Idempotent; Tracer.Finish calls it
// for spans the request path did not end explicitly.
func (sp *Span) End() {
	if sp.Total == 0 {
		sp.Total = nowMono().Sub(sp.Start)
	}
}

// StageSum reports the total time attributed to stages.
func (sp *Span) StageSum() time.Duration {
	var sum time.Duration
	for _, d := range sp.Stages {
		sum += d
	}
	return sum
}

// Traceparent renders this span's context for propagation downstream.
func (sp *Span) Traceparent() string {
	return FormatTraceparent(sp.TraceID, sp.SpanID)
}

func (sp *Span) reset() {
	*sp = Span{}
}

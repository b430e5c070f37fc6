package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"serenade/internal/core"
	"serenade/internal/index"
	"serenade/internal/sessions"
	"serenade/internal/synth"
)

const (
	// profile is the synthetic stand-in for the paper's ecom-60m dataset,
	// the fixture the repo's load-test experiments already use.
	profile = "ecom-60m-sim"
	// heldOutDays of the newest traffic become the replayed request stream;
	// two days (~27k clicks) keep one pass longer than the default 5 s
	// result-cache TTL even at the top of the capacity ladder, so a fresh
	// pass never hits entries left by the previous one.
	heldOutDays = 2
	// indexCapacity is the per-item posting capacity (the paper's m_max).
	indexCapacity = 500
	// slot is the server's shipped -recommendations default.
	slot = 21
	// mrrCutoff is the list depth MRR is computed at.
	mrrCutoff = 20
)

// fixture is the generated data every workload shares: the indexed history
// saved as SRNIDX02 and the held-out sessions replayed as traffic.
type fixture struct {
	test      *sessions.Dataset
	indexPath string
	numItems  int
	// build and save time core.BuildIndex and index.SaveFile.
	build, save time.Duration
}

// buildFixture generates the profile under the benchmark's seed, holds out
// the newest days, indexes the rest and saves the index to dir.
func buildFixture(seed int64, dir string) (*fixture, error) {
	cfg, err := synth.Profile(profile)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", profile, err)
	}
	sp := sessions.TemporalSplit(ds, heldOutDays)
	train := sessions.Renumber(sp.Train)
	t0 := time.Now()
	idx, err := core.BuildIndex(train, indexCapacity)
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	t1 := time.Now()
	path := filepath.Join(dir, "index.srn")
	if err := index.SaveFile(path, idx); err != nil {
		return nil, fmt.Errorf("saving index: %w", err)
	}
	t2 := time.Now()
	if len(sp.Test.Sessions) == 0 {
		return nil, fmt.Errorf("fixture: no held-out sessions")
	}
	return &fixture{test: sp.Test, indexPath: path, numItems: idx.NumItems(), build: t1.Sub(t0), save: t2.Sub(t1)}, nil
}

// request is one click of the replayed stream.
type request struct {
	User    int32 // one simulated user: a held-out session, or one burst copy of it
	Step    int32 // position of the click in its session
	Item    sessions.ItemID
	Next    sessions.ItemID // the session's recorded next click, when HasNext
	HasNext bool
	Consent bool
	Prev    int32 // index of the same user's previous click in the stream, or -1
}

// makeStream orders every held-out click by its recorded time, so clicks of
// many live sessions interleave as they did in the log. Each click is sent
// by burst users in lockstep; with denyEvery > 0, a seeded draw marks about
// one request in denyEvery as consent-denied.
func makeStream(test *sessions.Dataset, burst, denyEvery int, seed int64) []request {
	type click struct {
		t          int64
		sess, step int
	}
	var clicks []click
	for si := range test.Sessions {
		s := &test.Sessions[si]
		for j := range s.Items {
			clicks = append(clicks, click{t: s.Times[j], sess: si, step: j})
		}
	}
	sort.Slice(clicks, func(a, b int) bool {
		if clicks[a].t != clicks[b].t {
			return clicks[a].t < clicks[b].t
		}
		if clicks[a].sess != clicks[b].sess {
			return clicks[a].sess < clicks[b].sess
		}
		return clicks[a].step < clicks[b].step
	})
	rng := rand.New(rand.NewSource(seed))
	last := make(map[int32]int32)
	out := make([]request, 0, len(clicks)*burst)
	for _, c := range clicks {
		s := &test.Sessions[c.sess]
		for b := 0; b < burst; b++ {
			r := request{
				User:    int32(c.sess*burst + b),
				Step:    int32(c.step),
				Item:    s.Items[c.step],
				Consent: true,
				Prev:    -1,
			}
			if c.step+1 < len(s.Items) {
				r.Next, r.HasNext = s.Items[c.step+1], true
			}
			if denyEvery > 0 && rng.Intn(denyEvery) == 0 {
				r.Consent = false
			}
			if p, ok := last[r.User]; ok {
				r.Prev = p
			}
			last[r.User] = int32(len(out))
			out = append(out, r)
		}
	}
	return out
}

// phaseStream maps a phase's request indices onto repeated passes over the
// stream. Every pass uses fresh session keys, so a stored session never
// grows past its recorded length.
type phaseStream struct {
	prefix string
	reqs   []request
}

func (p phaseStream) at(i int) (request, int) {
	return p.reqs[i%len(p.reqs)], i / len(p.reqs)
}

func (p phaseStream) key(i int) string {
	r, pass := p.at(i)
	return p.prefix + strconv.Itoa(pass) + "-" + strconv.Itoa(int(r.User))
}

// prev is the phase index of request i's session predecessor, or -1.
func (p phaseStream) prev(i int) int {
	r, _ := p.at(i)
	if r.Prev < 0 {
		return -1
	}
	return i - (i % len(p.reqs)) + int(r.Prev)
}

// dupTailRatio is the share of a phase's n requests, sent at rate, whose
// kernel tail (the last core.DefaultMaxSessionLength items of the evolving
// session) repeats the tail of a request scheduled within the prior window.
// It bounds what a result cache or in-batch dedup could absorb.
func dupTailRatio(p phaseStream, n int, rate float64, ttl time.Duration) float64 {
	if n == 0 {
		return 0
	}
	sessionsByKey := make(map[string][]sessions.ItemID)
	lastSeen := make(map[string]time.Duration)
	var buf []byte
	dups := 0
	for i := 0; i < n; i++ {
		r, _ := p.at(i)
		key := p.key(i)
		var ev []sessions.ItemID
		if r.Consent {
			ev = append(sessionsByKey[key], r.Item)
			sessionsByKey[key] = ev
		} else {
			delete(sessionsByKey, key)
			ev = []sessions.ItemID{r.Item}
		}
		if len(ev) > core.DefaultMaxSessionLength {
			ev = ev[len(ev)-core.DefaultMaxSessionLength:]
		}
		buf = buf[:0]
		for _, it := range ev {
			buf = strconv.AppendUint(buf, uint64(it), 10)
			buf = append(buf, ',')
		}
		at := time.Duration(float64(i) / rate * float64(time.Second))
		tk := string(buf)
		if t, ok := lastSeen[tk]; ok && at-t < ttl {
			dups++
		}
		lastSeen[tk] = at
	}
	return float64(dups) / float64(n)
}

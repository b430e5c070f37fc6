package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a sender says so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) { c.advance(d) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// A response that stalls must show up in the latency of the requests
// scheduled behind it, timed from their scheduled sends: a clock started at
// dequeue would report them as fast.
func TestStallShowsInLaterRequests(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	const stall = 20 * time.Millisecond
	g := &openLoop{
		Rate: 1000, N: 10, Workers: 1, Clock: clk,
		Prev: func(int) int { return -1 },
		Send: func(i int) outcome {
			if i == 2 {
				clk.advance(stall)
			} else {
				clk.advance(100 * time.Microsecond)
			}
			return outcome{OK: true, Done: clk.Now()}
		},
	}
	ss := g.run()
	if got := ss[1].Lat; got != 100*time.Microsecond {
		t.Fatalf("request 1 latency %v, want 100µs", got)
	}
	if got := ss[2].Lat; got != stall {
		t.Fatalf("stalled request latency %v, want %v", got, stall)
	}
	// Request 3 was due at 3 ms but could only be sent at 22 ms.
	if got, want := ss[3].Lat, 19*time.Millisecond+100*time.Microsecond; got != want {
		t.Fatalf("request 3 latency %v, want %v", got, want)
	}
	if got, want := ss[3].Late, 19*time.Millisecond; got != want {
		t.Fatalf("request 3 lateness %v, want %v", got, want)
	}
	for i := 3; i < 10; i++ {
		if ss[i].Lat <= time.Millisecond {
			t.Fatalf("request %d latency %v hides the stall", i, ss[i].Lat)
		}
	}
}

func TestFailureIsMissed(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	g := &openLoop{
		Rate: 1000, N: 3, Workers: 1, Clock: clk,
		Prev: func(int) int { return -1 },
		Send: func(i int) outcome { return outcome{OK: i != 1, Done: clk.Now()} },
	}
	ss := g.run()
	if ss[1].OK || ss[1].Lat != missed {
		t.Fatalf("failed request recorded as %+v", ss[1])
	}
	if !ss[0].OK || ss[0].Lat == missed {
		t.Fatalf("successful request recorded as %+v", ss[0])
	}
}

// A session's click n+1 is never sent before the response to click n has
// arrived, however the schedule and the workers interleave.
func TestSessionOrderHeld(t *testing.T) {
	const n, sessions = 400, 7
	prev := func(i int) int {
		if i < sessions {
			return -1
		}
		return i - sessions
	}
	var seq atomic.Int64
	sent := make([]int64, n)
	answered := make([]int64, n)
	g := &openLoop{
		Rate: 1e9, N: n, Workers: 4, Clock: wallClock{}, Prev: prev,
		Send: func(i int) outcome {
			sent[i] = seq.Add(1)
			if i%3 == 0 {
				time.Sleep(50 * time.Microsecond) // let another worker overtake
			}
			answered[i] = seq.Add(1)
			return outcome{OK: true, Done: time.Now()}
		},
	}
	g.run()
	for i := sessions; i < n; i++ {
		if sent[i] < answered[prev(i)] {
			t.Fatalf("request %d sent at %d before its predecessor %d was answered at %d", i, sent[i], prev(i), answered[prev(i)])
		}
	}
}

func TestPhaseStreamPasses(t *testing.T) {
	reqs := []request{
		{User: 0, Prev: -1}, {User: 1, Prev: -1}, {User: 0, Prev: 0},
	}
	ps := phaseStream{prefix: "f", reqs: reqs}
	if got := ps.key(2); got != "f0-0" {
		t.Fatalf("key(2) = %q", got)
	}
	// The second pass reuses the stream under fresh keys, and its
	// dependencies stay inside the pass.
	if got := ps.key(3); got != "f1-0" {
		t.Fatalf("key(3) = %q", got)
	}
	for i, want := range []int{-1, -1, 0, -1, -1, 3} {
		if got := ps.prev(i); got != want {
			t.Fatalf("prev(%d) = %d, want %d", i, got, want)
		}
	}
}

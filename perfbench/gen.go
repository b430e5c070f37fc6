package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// wallClock sleeps in nanosleep(2) rather than time.Sleep: the runtime
// rounds a sub-millisecond timer wait up to its poller's millisecond
// granularity when the process is idle, which would add up to a
// millisecond of the generator's own lateness to every request.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// sample is what the generator records for one request. Both durations
// start at the request's scheduled send time, not at the moment a worker
// got to it, so time a stalled response made later requests wait is part
// of their latency.
type sample struct {
	Late time.Duration // actual send − scheduled send
	Lat  time.Duration // response − scheduled send; missed when !OK
	OK   bool
}

// outcome is what a sender reports for one request: whether it succeeded
// and when its response arrived. Work the sender does after the response
// (a follow-up click) is not part of the latency, but it still holds the
// session's next click back.
type outcome struct {
	OK   bool
	Done time.Time
}

// openLoop sends N requests on a fixed schedule: request i is due at
// start + i/Rate, whatever happened to the requests before it. At most
// Workers requests are in flight. A request whose Prev is not yet answered
// waits for it, as a user does not click again before the page loads; it is
// still timed from its own scheduled send.
type openLoop struct {
	Rate    float64
	N       int
	Workers int
	// Prev returns the index of the same session's previous click within
	// this phase, or -1.
	Prev  func(i int) int
	Send  func(i int) outcome
	Clock clock
}

// due is request i's scheduled send time.
func (g *openLoop) due(start time.Time, i int) time.Time {
	return start.Add(time.Duration(float64(i) / g.Rate * float64(time.Second)))
}

// run sends the phase and returns one sample per request, in schedule order.
func (g *openLoop) run() []sample {
	out := make([]sample, g.N)
	answered := make([]sync.WaitGroup, g.N)
	for i := range answered {
		answered[i].Add(1)
	}
	start := g.Clock.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= g.N {
					return
				}
				due := g.due(start, i)
				if d := due.Sub(g.Clock.Now()); d > 0 {
					g.Clock.Sleep(d)
				}
				if p := g.Prev(i); p >= 0 {
					answered[p].Wait()
				}
				sent := g.Clock.Now()
				res := g.Send(i)
				s := sample{Late: sent.Sub(due), Lat: res.Done.Sub(due), OK: res.OK}
				if !res.OK {
					s.Lat = missed
				}
				out[i] = s
				answered[i].Done()
			}
		}()
	}
	wg.Wait()
	return out
}

// latencies and lateness split samples into the two series the SLO judge
// reads.
func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.Lat
	}
	return out
}

func lateness(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.Late
	}
	return out
}

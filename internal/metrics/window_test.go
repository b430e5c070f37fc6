package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a settable clock for driving windows deterministically.
type fakeClock struct{ sec atomic.Int64 }

func (c *fakeClock) now() time.Time  { return time.Unix(c.sec.Load(), 0) }
func (c *fakeClock) set(s int64)     { c.sec.Store(s) }
func (c *fakeClock) advance(d int64) { c.sec.Add(d) }

func TestWindowedCounterDeterministic(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	w := NewWindowedCounter(time.Hour, clk.now)

	// 100 requests at t=1000, 5 slow, 2 errors.
	for i := 0; i < 100; i++ {
		var slow, errs uint64
		if i < 5 {
			slow = 1
		}
		if i < 2 {
			errs = 1
		}
		w.Add(1, slow, errs)
	}
	if tot, slow, errs := w.Sum(time.Minute); tot != 100 || slow != 5 || errs != 2 {
		t.Fatalf("Sum(1m) = (%d,%d,%d), want (100,5,2)", tot, slow, errs)
	}

	// 30 seconds later another 50 clean requests: the 1m window sees both.
	clk.advance(30)
	for i := 0; i < 50; i++ {
		w.Add(1, 0, 0)
	}
	if tot, slow, _ := w.Sum(time.Minute); tot != 150 || slow != 5 {
		t.Fatalf("Sum(1m) after 30s = (%d,%d), want (150,5)", tot, slow)
	}
	// A 10s window sees only the recent batch.
	if tot, slow, _ := w.Sum(10 * time.Second); tot != 50 || slow != 0 {
		t.Fatalf("Sum(10s) = (%d,%d), want (50,0)", tot, slow)
	}

	// 2 minutes later the first batch has left the 1m window but not the 5m.
	clk.advance(120)
	if tot, _, _ := w.Sum(time.Minute); tot != 0 {
		t.Fatalf("Sum(1m) after expiry = %d, want 0", tot)
	}
	if tot, slow, errs := w.Sum(5 * time.Minute); tot != 150 || slow != 5 || errs != 2 {
		t.Fatalf("Sum(5m) = (%d,%d,%d), want (150,5,2)", tot, slow, errs)
	}

	// Past the horizon everything ages out, including recycled slots.
	clk.advance(3700)
	if tot, _, _ := w.Sum(time.Hour); tot != 0 {
		t.Fatalf("Sum(1h) after horizon = %d, want 0", tot)
	}
}

// TestWindowedCounterRecycling checks that a bucket slot reused for a new
// second (same index modulo horizon) does not leak the old second's counts.
func TestWindowedCounterRecycling(t *testing.T) {
	clk := &fakeClock{}
	clk.set(7)
	w := NewWindowedCounter(10*time.Second, clk.now)
	w.Add(1, 1, 0)
	clk.advance(10) // lands on the same slot: 17 % 10 == 7 % 10
	w.Add(1, 0, 0)
	if tot, slow, _ := w.Sum(10 * time.Second); tot != 1 || slow != 0 {
		t.Fatalf("recycled slot leaked old counts: (%d,%d), want (1,0)", tot, slow)
	}
}

func TestWindowedCounterClampsWindow(t *testing.T) {
	clk := &fakeClock{}
	clk.set(100)
	w := NewWindowedCounter(10*time.Second, clk.now)
	w.Add(1, 0, 0)
	// Asking beyond the horizon clamps instead of misindexing.
	if tot, _, _ := w.Sum(time.Hour); tot != 1 {
		t.Fatalf("clamped Sum = %d, want 1", tot)
	}
	if w.Horizon() != 10*time.Second {
		t.Fatalf("Horizon = %v", w.Horizon())
	}
}

// TestWindowedCounterClockSkew drives the counter through NTP-style clock
// steps. The invariants: a backward step recycles the slot it lands on (no
// stale counts leak into sums), buckets stamped in the future relative to the
// querying clock are excluded from Sum, and when the clock recovers the
// still-live buckets become visible again.
func TestWindowedCounterClockSkew(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	w := NewWindowedCounter(time.Minute, clk.now)
	w.Add(1, 0, 0) // stamped 1000

	// The clock steps back 10s. The add lands in a fresh slot; the bucket
	// stamped 1000 is now in this clock's future and must not be summed.
	clk.set(990)
	w.Add(1, 0, 0)
	if tot, _, _ := w.Sum(time.Minute); tot != 1 {
		t.Fatalf("Sum(1m) under backward skew = %d, want 1 (future bucket excluded)", tot)
	}

	// The clock recovers: both seconds are inside the window again.
	clk.set(1000)
	if tot, _, _ := w.Sum(time.Minute); tot != 2 {
		t.Fatalf("Sum(1m) after recovery = %d, want 2", tot)
	}

	// A backward step landing on an already-stamped slot recycles it rather
	// than merging counts across different seconds: 1005 and 945 share a slot
	// (horizon 60), and the CAS on the stamp must reset the lanes.
	clk.set(1005)
	w.Add(5, 0, 0)
	clk.set(945)
	w.Add(3, 0, 0)
	if tot, _, _ := w.Sum(time.Minute); tot != 3 {
		t.Fatalf("Sum(1m) after backward recycle = %d, want 3 (no merged lanes)", tot)
	}

	// A large forward step ages everything out; the recycled slots must not
	// resurrect old counts.
	clk.set(5000)
	if tot, _, _ := w.Sum(time.Minute); tot != 0 {
		t.Fatalf("Sum(1m) after forward jump = %d, want 0", tot)
	}
	w.Add(7, 0, 0)
	if tot, _, _ := w.Sum(time.Minute); tot != 7 {
		t.Fatalf("Sum(1m) post-jump = %d, want 7", tot)
	}
}

// TestWindowedCounterConcurrent hammers Add/Sum from many goroutines while
// the clock advances; run under -race this is the burn-rate accumulator's
// concurrency proof. Counts may drop at second boundaries (documented), so
// the assertion is a bound, not equality.
func TestWindowedCounterConcurrent(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1)
	w := NewWindowedCounter(time.Hour, clk.now)
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // reader
		for {
			select {
			case <-stop:
				return
			default:
				w.Sum(time.Minute)
			}
		}
	}()
	go func() { // clock mover: a few boundary crossings mid-run
		for i := 0; i < 4; i++ {
			time.Sleep(time.Millisecond)
			clk.advance(1)
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				w.Add(1, uint64(i&1), 0)
			}
		}()
	}
	wg.Wait()
	close(stop)
	tot, slow, _ := w.Sum(time.Hour)
	if tot > writers*perWriter || slow > tot {
		t.Fatalf("impossible totals: tot=%d slow=%d", tot, slow)
	}
	// Allow up to one lost add per lane per writer per boundary crossing.
	if min := uint64(writers*perWriter - writers*8); tot < min {
		t.Fatalf("lost too many counts: tot=%d, want ≥%d", tot, min)
	}
}

// TestWindowRecordPathAllocs asserts the acceptance criterion: the rolling
// accumulators are allocation-free on their record paths.
func TestWindowRecordPathAllocs(t *testing.T) {
	w := NewWindowedCounter(time.Hour, nil)
	if n := testing.AllocsPerRun(1000, func() { w.Add(1, 1, 0) }); n != 0 {
		t.Fatalf("WindowedCounter.Add allocates %.1f/op, want 0", n)
	}
}

func BenchmarkWindowedCounterAdd(b *testing.B) {
	w := NewWindowedCounter(time.Hour, nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w.Add(1, 1, 0)
		}
	})
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	root := span{start: 0, end: 100}
	for _, c := range []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 30, end: 50}}, 70},
		{"overlap counted once", []span{{start: 10, end: 40}, {start: 30, end: 60}}, 50},
		{"nested", []span{{start: 10, end: 60}, {start: 20, end: 30}}, 50},
		{"clipped to the parent", []span{{start: -20, end: 10}, {start: 90, end: 150}}, 80},
		{"outside the parent", []span{{start: 200, end: 300}}, 100},
		{"adjacent", []span{{start: 0, end: 50}, {start: 50, end: 100}}, 0},
	} {
		if got := selfTime(root, c.kids); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

// tracedSpans builds the spans of one traced request from child durations
// laid end to end inside a root.
func tracedSpans(base int64, kids map[uint8]int64) []span {
	out := []span{{kind: spanRequest, parent: -1, start: base}}
	at := base + 1
	for kind := uint8(1); kind < numSpanKinds; kind++ {
		d, ok := kids[kind]
		if !ok {
			continue
		}
		out = append(out, span{kind: kind, parent: 0, start: at, end: at + d})
		at += d
	}
	out[0].end = at + 1
	return out
}

func TestServingSelfAndLedger(t *testing.T) {
	var spans []span
	for r := 0; r < 2; r++ {
		req := tracedSpans(int64(r)*10_000, map[uint8]int64{
			spanRTT: 1000, spanHandler: 400, spanDecode: 10, spanRecommend: 300,
			spanGet: 20, spanPut: 30, spanNeighbors: 150, spanScore: 60,
			spanExposure: 5, spanEncode: 15,
		})
		off := int32(len(spans))
		for i := 1; i < len(req); i++ {
			req[i].parent = off
		}
		spans = append(spans, req...)
	}
	lt := collect(spans)
	for _, d := range lt.servingSelf {
		// 300 − (20 + 30 + 150 + 60 + 5)
		if d != 35 {
			t.Fatalf("serving self %v, want 35ns", d)
		}
	}
	for _, d := range lt.rootSelf {
		if d != 2 {
			t.Fatalf("root self %v, want 2ns", d)
		}
	}
	led := buildLedger(lt, 2, true)
	// Σ(decode, get, put, kernel, encode, exposure) = 290 of a 400 handler.
	if want := 100 * (400.0 - 290.0) / 400.0; math.Abs(led.unexplainedPct-want) > 1e-9 {
		t.Fatalf("unexplained %.3f%%, want %.3f%%", led.unexplainedPct, want)
	}
	if want := 100 * 600.0 / 1000.0; math.Abs(led.socketPct-want) > 1e-9 {
		t.Fatalf("socket share %.3f%%, want %.3f%%", led.socketPct, want)
	}
	// Without the quality layer on the path the exposure is not summed.
	if led := buildLedger(lt, 2, false); math.Abs(led.layers*1e3-285) > 1e-6 {
		t.Fatalf("layers without exposure %.3fns, want 285", led.layers*1e3)
	}
}

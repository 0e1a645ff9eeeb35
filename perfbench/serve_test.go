package main

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestJoinRequestsToBatches(t *testing.T) {
	reqs := []reqRec{
		{row: 7, sent: at(0), recv: at(10)},
		{row: 8, sent: at(1), recv: at(10)},
		{row: 7, sent: at(20), recv: at(30)}, // same row again, later batch
		{row: 9, sent: at(20), recv: at(21)}, // its batch ends after the response: unmatched
		{row: 5, err: errors.New("refused")}, // failed requests are not joined
	}
	batches := []batchRec{
		{start: at(22), end: at(25), rows: []int{7, 9}},
		{start: at(3), end: at(8), rows: []int{8, 7}},
		{start: at(2), end: at(4), rows: []int{-1}}, // an input that is no request
	}
	splits, unmatched := joinRequests(reqs, batches)
	if unmatched != 1 {
		t.Fatalf("unmatched = %d, want 1", unmatched)
	}
	want := []reqSplit{
		{wait: 3 * time.Millisecond, infer: 5 * time.Millisecond, after: 2 * time.Millisecond, batch: 2},
		{wait: 2 * time.Millisecond, infer: 5 * time.Millisecond, after: 2 * time.Millisecond, batch: 2},
		{wait: 2 * time.Millisecond, infer: 3 * time.Millisecond, after: 5 * time.Millisecond, batch: 2},
	}
	if len(splits) != len(want) {
		t.Fatalf("splits = %+v, want %+v", splits, want)
	}
	for i := range want {
		if splits[i] != want[i] {
			t.Errorf("split %d = %+v, want %+v", i, splits[i], want[i])
		}
	}
}

// Two requests for the same row in flight at once take one batch slot each.
func TestJoinUsesEachBatchSlotOnce(t *testing.T) {
	reqs := []reqRec{
		{row: 3, sent: at(0), recv: at(10)},
		{row: 3, sent: at(1), recv: at(12)},
	}
	batches := []batchRec{
		{start: at(2), end: at(4), rows: []int{3}},
		{start: at(5), end: at(9), rows: []int{3}},
	}
	splits, unmatched := joinRequests(reqs, batches)
	if unmatched != 0 || len(splits) != 2 {
		t.Fatalf("splits %+v unmatched %d", splits, unmatched)
	}
	if splits[0].wait != 2*time.Millisecond || splits[1].wait != 4*time.Millisecond {
		t.Fatalf("waits %v %v, want 2ms and 4ms", splits[0].wait, splits[1].wait)
	}
}

func TestCanonicalRowsMapsRepeatsToFirst(t *testing.T) {
	data := []float32{1, 2, 3, 4, 1, 2, 5, 6, 3, 4}
	canon, rowOf := canonicalRows(data, 5)
	want := []int{0, 1, 0, 3, 1}
	for i := range want {
		if canon[i] != want[i] {
			t.Fatalf("canon = %v, want %v", canon, want)
		}
	}
	if len(rowOf) != 3 || rowOf[rowHash([]float32{3, 4})] != 1 {
		t.Fatalf("rowOf = %v, want 3 distinct rows with {3,4} at row 1", rowOf)
	}
}

// steadyRung is a rung whose every request took latMS and whose responses
// kept pace with the offered rate.
func steadyRung(rate, latMS float64) rung {
	g := rung{rate: rate, paceRate: rate}
	for i := 0; i < ladderMinRequests; i++ {
		g.latMS = append(g.latMS, latMS)
	}
	return g
}

// The ladder runs a failing rung once more, stops at the first rung that
// fails twice, runs no rung above it, and reports the rung below as the
// capacity.
func TestLadderStopsAtFirstRungThatFailsTwice(t *testing.T) {
	rates := []float64{100, 200, 300, 400, 500}
	cases := []struct {
		name     string
		fail     float64 // first failing rate
		once     bool    // the failing rung passes when run again
		breakIt  func(g *rung)
		capacity float64
		called   []float64
	}{
		{"p99 over the limit", 300, false, func(g *rung) {
			for i := 0; i < 11; i++ { // 11 of 1,000 over the limit: p99 is over it
				g.latMS[i] = ladderP99LimitMS + 1
			}
		}, 200, []float64{100, 200, 300, 300}},
		{"a refused request", 200, false, func(g *rung) { g.refused = 1 }, 100, []float64{100, 200, 200}},
		{"growing backlog", 400, false, func(g *rung) { g.paceRate = 0.9 * g.rate }, 300, []float64{100, 200, 300, 400, 400}},
		{"too few samples for p99", 100, false, func(g *rung) { g.latMS = g.latMS[:ladderMinRequests-1] }, 0, []float64{100, 100}},
		{"one stall, then the rerun passes", 300, true, func(g *rung) { g.refused = 1 }, 500, []float64{100, 200, 300, 300, 400, 500}},
		{"every rung passes", 0, false, nil, 500, []float64{100, 200, 300, 400, 500}},
	}
	for _, c := range cases {
		var called []float64
		broken := false
		capacity, ran := climbLadder(rates, func(rate float64) rung {
			called = append(called, rate)
			g := steadyRung(rate, 5)
			if rate == c.fail && c.breakIt != nil && !(c.once && broken) {
				c.breakIt(&g)
				broken = true
			}
			return g
		})
		if capacity != c.capacity || len(ran) != len(c.called) || fmt.Sprint(called) != fmt.Sprint(c.called) {
			t.Errorf("%s: capacity %v after rungs %v, want %v after %v", c.name, capacity, called, c.capacity, c.called)
		}
	}
}

// A rung's pace is its answered requests over the time from the first
// scheduled send to the last response; refused requests count as refused.
func TestNewRungPaceAndRefusals(t *testing.T) {
	var recs []reqRec
	for i := 0; i < 10; i++ {
		recs = append(recs, reqRec{sched: at(float64(i * 100)), recv: at(float64(i*100 + 5))})
	}
	recs[3].err = &httpError{code: 429}
	g := newRung(10, recs)
	if g.refused != 1 || len(g.latMS) != 9 {
		t.Fatalf("refused %d answered %d, want 1 and 9", g.refused, len(g.latMS))
	}
	// Nine answers from 0 ms to 905 ms.
	if want := 9 / 0.905; math.Abs(g.paceRate-want) > 1e-9 {
		t.Fatalf("pace %v, want %v", g.paceRate, want)
	}
	if !isShed(recs[3].err) || isShed(&httpError{code: 500}) || isShed(errors.New("refused")) {
		t.Fatal("isShed must accept exactly HTTP 429")
	}
}

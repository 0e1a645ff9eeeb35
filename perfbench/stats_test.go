package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has fewer than 10 beyond it, want absent")
	}
	v, ok := percentile(seq(1000), 0.99)
	if !ok {
		t.Fatal("p99 of 1000 samples has 10 beyond it, want a value")
	}
	// Rank 0.99*999 = 989.01 between the 990th and 991st values.
	if math.Abs(v-990.01) > 1e-9 {
		t.Fatalf("p99 of 1..1000 = %v, want 990.01", v)
	}
	if _, ok := percentile(seq(199), 0.95); ok {
		t.Fatal("p95 of 199 samples, want absent")
	}
	if _, ok := percentile(seq(200), 0.95); !ok {
		t.Fatal("p95 of 200 samples, want a value")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples, want absent")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM(strings.NewReader("Name:\tx\nVmPeak:\t  9999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n"))
	if err != nil || got != 2 {
		t.Fatalf("parseVmHWM = %v, %v; want 2 MiB", got, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS: 1 kB\n")); err == nil {
		t.Fatal("missing VmHWM line, want an error")
	}
}

// Set-up runs once before any measurement, then once per setupEvery of
// measurement, and is topped up to minSetupReps at the end.
func TestSetupTimerSpreadsRepetitions(t *testing.T) {
	calls := 0
	st := setupTimer{setup: func() error { calls++; return nil }}
	for _, c := range []struct {
		measured time.Duration
		want     int
	}{{0, 1}, {setupEvery - 1, 1}, {setupEvery, 2}, {3*setupEvery + setupEvery/2, 4}, {setupEvery, 4}} {
		if err := st.due(c.measured); err != nil || calls != c.want {
			t.Fatalf("due(%v): %d set-ups, err %v; want %d", c.measured, calls, err, c.want)
		}
	}
	if _, err := st.finish(); err != nil || calls != minSetupReps || len(st.secs) != minSetupReps {
		t.Fatalf("finish: %d set-ups, %d timed, err %v; want %d", calls, len(st.secs), err, minSetupReps)
	}
	if st.spent <= 0 {
		t.Fatal("set-up time not accounted")
	}
}

package serve

// White-box tests for the computed Retry-After estimate: the drain-rate EWMA
// is private state, so these tests pin it directly to make the arithmetic
// deterministic, and hold the queue static behind a gated replica.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// setDrainRate pins the observed drain rate (requests per second).
func setDrainRate(s *Server, rate float64) {
	s.drainMu.Lock()
	s.drainRate = rate
	s.drainMu.Unlock()
}

// TestRetryAfterComputed checks the estimate against a queue held at a known
// depth: depth+1 requests at a pinned drain rate, rounded up and clamped to
// [1, 30] seconds.
func TestRetryAfterComputed(t *testing.T) {
	gate := newGateLayer()
	s, err := New(Config{
		NewSparseReplica: gatedModel(gate),
		InputShape:       testShape,
		Replicas:         1,
		MaxBatch:         1,
		MaxWait:          -1,
		QueueDepth:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No drain observed yet: the estimate is the optimistic 1s floor.
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Errorf("RetryAfterSeconds with no history = %d, want 1", got)
	}

	input := make([]float32, 16)
	bg := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.Predict(bg, input) }()
	<-gate.entered // replica busy; the batcher will hold exactly one more

	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Predict(bg, input) }()
	}
	// 6 accepted: 1 running, 1 held by the blocked batcher, 4 queued.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.requests.Load() == 6 && s.queuedTotal() == 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.queuedTotal(); got != 4 {
		t.Fatalf("queued %d requests behind the gate, want 4", got)
	}

	setDrainRate(s, 2.0) // (4+1)/2 -> ceil = 3
	if got := s.RetryAfterSeconds(); got != 3 {
		t.Errorf("RetryAfterSeconds at depth 4, rate 2/s = %d, want 3", got)
	}
	setDrainRate(s, 0.01) // 500s -> clamped
	if got := s.RetryAfterSeconds(); got != 30 {
		t.Errorf("RetryAfterSeconds at rate 0.01/s = %d, want clamp to 30", got)
	}
	setDrainRate(s, 1e6) // instant drain -> floor
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Errorf("RetryAfterSeconds at rate 1e6/s = %d, want floor 1", got)
	}

	close(gate.gate)
	wg.Wait()
	s.Close()

	// The EWMA observed the real drained batches, so the organic estimate is
	// now in range without pinning.
	if got := s.RetryAfterSeconds(); got < 1 || got > 30 {
		t.Errorf("organic RetryAfterSeconds = %d outside [1, 30]", got)
	}
	s.drainMu.Lock()
	organic := s.drainRate
	s.drainMu.Unlock()
	if organic <= 0 {
		t.Errorf("drain rate EWMA %g after 6 served requests, want > 0", organic)
	}
}

// TestRetryAfterHeaderSaturated checks the satellite acceptance end to end:
// a request shed from a saturated queue gets HTTP 429 whose Retry-After
// header carries the computed estimate, not the old hardcoded 1.
func TestRetryAfterHeaderSaturated(t *testing.T) {
	gate := newGateLayer()
	s, err := New(Config{
		NewSparseReplica: gatedModel(gate),
		InputShape:       testShape,
		Replicas:         1,
		MaxBatch:         1,
		MaxWait:          -1,
		QueueDepth:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()

	input := make([]float32, 16)
	bg := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.Predict(bg, input) }()
	<-gate.entered
	// Saturate best-effort: sent one at a time so acceptance is
	// deterministic — the blocked batcher holds the first, the next 8 fill
	// the tier queue (cap 8) exactly.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.PredictTier(bg, input, TierBestEffort) }()
		for accepted := uint64(2 + i); time.Now().Before(deadline) && s.requests.Load() < accepted; {
			time.Sleep(time.Millisecond)
		}
	}
	for time.Now().Before(deadline) && s.queuedTotal() < 8 {
		time.Sleep(time.Millisecond)
	}
	depth := s.queuedTotal()
	if depth != 8 {
		t.Fatalf("queued %d, want the best-effort queue saturated at 8", depth)
	}
	setDrainRate(s, 2.0)
	want := s.RetryAfterSeconds() // (depth+1)/2, queue is static behind the gate

	req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(`{"input":`+jsonZeros(16)+`}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TierHeader, "best-effort")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated predict: status %d, want 429", resp.StatusCode)
	}
	got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if got != want {
		t.Errorf("Retry-After %d, want computed %d (depth %d at 2/s)", got, want, depth)
	}
	if got < 1 || got > 30 {
		t.Errorf("Retry-After %d outside [1, 30]", got)
	}

	close(gate.gate)
	wg.Wait()
	s.Close()
}

// jsonZeros renders an n-element JSON array of zeros.
func jsonZeros(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat("0,", n-1)+"0", ",") + "]"
}

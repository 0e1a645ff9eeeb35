package serve

import (
	"strings"
	"testing"
	"time"
)

// observeN records n requests of latency d on v.
func observeN(v *version, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		v.observe(d)
	}
}

// TestCanaryLatencyRuleWaitsForSettledQuantile: the latency rule ignores
// slow requests while either version has fewer than minLatencySamples
// samples, ignores a few stalls on a healthy canary once both have enough
// (it compares p90s, which at least 10 samples lie beyond), and rolls a
// uniformly slow canary back.
func TestCanaryLatencyRuleWaitsForSettledQuantile(t *testing.T) {
	stable := &version{}
	observeN(stable, minLatencySamples, 100*time.Microsecond)

	early := &version{}
	observeN(early, 16, 100*time.Microsecond)
	observeN(early, 4, 50*time.Millisecond) // a fifth of few samples stalled
	if reason := canaryRegression(early, stable, 0); reason != "" {
		t.Fatalf("stalls in %d samples rolled the canary back: %s", early.lat.Count(), reason)
	}

	stalled := &version{}
	observeN(stalled, minLatencySamples-9, 100*time.Microsecond)
	observeN(stalled, 9, 50*time.Millisecond) // nine scheduler stalls
	if reason := canaryRegression(stalled, stable, 0); reason != "" {
		t.Fatalf("healthy canary with 9 stalls in %d samples rolled back: %s", stalled.lat.Count(), reason)
	}

	slow := &version{}
	observeN(slow, minLatencySamples, 301*time.Microsecond)
	if reason := canaryRegression(slow, stable, 0); !strings.Contains(reason, "p90") {
		t.Fatalf("uniformly 3x slower canary not rolled back on p90: %q", reason)
	}
}

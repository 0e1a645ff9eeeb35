package serve

import (
	"strings"
	"testing"
	"time"
)

// TestCanaryLatencyRuleWaitsForSettledP99: the p99 latency rule ignores a
// single slow request while either version has fewer than minP99Samples
// samples (p99 would be the maximum), and rolls a uniformly slow canary back
// once both have enough.
func TestCanaryLatencyRuleWaitsForSettledP99(t *testing.T) {
	stable, canary := &version{}, &version{}
	for i := 0; i < minP99Samples; i++ {
		stable.observe(100 * time.Microsecond)
	}
	for i := 0; i < 19; i++ {
		canary.observe(100 * time.Microsecond)
	}
	canary.observe(50 * time.Millisecond) // one stall among few samples
	if reason := canaryRegression(canary, stable, 0); reason != "" {
		t.Fatalf("one stall in %d samples rolled the canary back: %s", canary.lat.Count(), reason)
	}

	slow := &version{}
	for i := 0; i < minP99Samples; i++ {
		slow.observe(time.Millisecond)
	}
	if reason := canaryRegression(slow, stable, 0); !strings.Contains(reason, "p99") {
		t.Fatalf("uniformly 10x slower canary not rolled back on p99: %q", reason)
	}
}

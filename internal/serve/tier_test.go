package serve

import (
	"context"
	"errors"
	"testing"
)

func TestParseTier(t *testing.T) {
	cases := []struct {
		in   string
		want Tier
	}{
		{"", TierInteractive},
		{"interactive", TierInteractive},
		{"batch", TierBatch},
		{"best-effort", TierBestEffort},
		{"besteffort", TierBestEffort},
	}
	for _, c := range cases {
		got, err := ParseTier(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v, nil", c.in, got, err, c.want)
		}
	}
	if _, err := ParseTier("urgent"); !errors.Is(err, ErrBadInput) {
		t.Errorf("ParseTier(urgent) = %v, want ErrBadInput", err)
	}
	if got := TierBatch.String(); got != "batch" {
		t.Errorf("TierBatch.String() = %q", got)
	}
	if got := Tier(9).String(); got != "tier(9)" {
		t.Errorf("Tier(9).String() = %q", got)
	}
}

// TestTierShedConfigValidation pins the invariant the fixed admission
// thresholds must keep: every threshold is positive and they do not increase
// from interactive down, so pressure always sheds the lowest tier first.
func TestTierShedConfigValidation(t *testing.T) {
	prev := tierShedAt[0]
	for tier, f := range tierShedAt {
		if f <= 0 || f > prev {
			t.Fatalf("tierShedAt[%s] = %g in %v: want positive and non-increasing", Tier(tier), f, tierShedAt)
		}
		prev = f
	}
	if tierShedAt[TierInteractive] != 1 {
		t.Fatalf("interactive threshold %g: interactive must shed only when every queue is full", tierShedAt[TierInteractive])
	}
}

func TestPredictTierInvalidTier(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.PredictTier(context.Background(), make([]float32, 16), Tier(7)); !errors.Is(err, ErrBadInput) {
		t.Errorf("PredictTier with tier 7: got %v, want ErrBadInput", err)
	}
}

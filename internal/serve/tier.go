package serve

import "fmt"

// Tier is a request priority class. Admission control sheds the lowest tier
// first under queue pressure, and the micro-batcher always drains higher
// tiers before lower ones, so interactive latency stays bounded while
// best-effort work absorbs the overload.
type Tier uint8

const (
	// TierInteractive is user-facing traffic: served first, shed last.
	TierInteractive Tier = iota
	// TierBatch is throughput-oriented traffic that tolerates queueing.
	TierBatch
	// TierBestEffort is preemptible traffic: first to be shed under load.
	TierBestEffort
	// NumTiers is the number of priority tiers.
	NumTiers = 3
)

// TierHeader is the HTTP request header carrying the priority tier name.
// Absent or empty means TierInteractive.
const TierHeader = "X-Priority"

// tierNames maps tiers to their wire names, in priority order.
var tierNames = [NumTiers]string{"interactive", "batch", "best-effort"}

// String returns the tier's wire name.
func (t Tier) String() string {
	if int(t) < NumTiers {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// ParseTier maps a wire name to a Tier. The empty string is interactive, so
// clients that do not know about tiers keep their pre-tier behavior.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "interactive":
		return TierInteractive, nil
	case "batch":
		return TierBatch, nil
	case "best-effort", "besteffort":
		return TierBestEffort, nil
	}
	return TierInteractive, fmt.Errorf("%w: unknown priority tier %q (want interactive, batch, or best-effort)", ErrBadInput, s)
}

// tierShedAt is the per-tier admission threshold: the fraction of total
// queue capacity (summed over every tier's queue) at or above which the tier
// is shed preemptively. Interactive sheds only when the whole queue space is
// exhausted (which implies its own queue is full); batch gives up at 70%
// occupancy and best-effort at 40%, so pressure strictly consumes the lowest
// tiers first.
var tierShedAt = [NumTiers]float64{1.0, 0.7, 0.4}

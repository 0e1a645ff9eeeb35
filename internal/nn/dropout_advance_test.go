package nn

import (
	"fmt"
	"math"
	"testing"

	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// onesBatch returns an n-sample batch of f features with distinct values, so
// masked outputs differ per element.
func onesBatch(n, f int) *tensor.Tensor {
	x := tensor.New(n, f)
	for i := range x.Data {
		x.Data[i] = float32(i+1) * 0.125
	}
	return x
}

// TestDropoutAdvanceSamplesMatchesSequentialStream is the index-addressing
// property. For random batch sizes, widths, drop rates, starting counts and
// partitions of the batch into contiguous shards (empty ones included), a
// layer set to base and advanced by lo, then forwarded on rows [lo, hi),
// produces exactly the full-batch pass's rows and ends at base+hi; the last
// shard thus ends where the full-batch layer does, at base+n. A training
// forward advances the count by the batch size whatever P is, P = 0
// included; an inference forward is the identity and leaves it alone.
func TestDropoutAdvanceSamplesMatchesSequentialStream(t *testing.T) {
	rng := xorshift.NewState64(0xD0D0)
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(rng.Uint32n(9))
		f := 1 + int(rng.Uint32n(7))
		p := float32(rng.Uint32n(9)) / 10 // 0 included
		base := uint64(rng.Uint32n(1000))
		seed := rng.Next()
		ctx := fmt.Sprintf("trial %d (n=%d f=%d p=%v base=%d)", trial, n, f, p, base)

		x := onesBatch(n, f)
		full := NewDropout("d", seed, p)
		full.SetRNGState(base)
		if y := full.Forward(x, false); y != x || full.RNGState() != base {
			t.Fatalf("%s: inference forward moved the count to %d or was not the identity", ctx, full.RNGState())
		}
		want := full.Forward(x, true).Data
		if full.RNGState() != base+uint64(n) {
			t.Fatalf("%s: full batch ends at %d, want %d", ctx, full.RNGState(), base+uint64(n))
		}

		for lo := 0; lo < n; {
			hi := lo + int(rng.Uint32n(uint32(n-lo)+1)) // may be empty
			shard := NewDropout("d", seed, p)
			shard.SetRNGState(base)
			shard.AdvanceSamples(lo)
			if hi > lo {
				y := shard.Forward(tensor.FromSlice(x.Data[lo*f:hi*f], hi-lo, f), true)
				for i, v := range y.Data {
					if math.Float32bits(v) != math.Float32bits(want[lo*f+i]) {
						t.Fatalf("%s: shard [%d,%d) element %d = %v, full batch %v", ctx, lo, hi, i, v, want[lo*f+i])
					}
				}
			}
			if shard.RNGState() != base+uint64(hi) {
				t.Fatalf("%s: shard [%d,%d) ends at %d, want %d", ctx, lo, hi, shard.RNGState(), base+uint64(hi))
			}
			lo = hi
		}
	}
}

// TestDropoutAdvanceSamplesNoOps: non-positive counts advance nothing, and a
// P==0 layer passes its input through unmasked wherever its count stands.
func TestDropoutAdvanceSamplesNoOps(t *testing.T) {
	d := NewDropout("d", 5, 0.5)
	d.Forward(onesBatch(2, 3), true)
	state := d.RNGState()
	d.AdvanceSamples(0)
	d.AdvanceSamples(-4)
	if d.RNGState() != state {
		t.Fatalf("non-positive advance moved the count: %d -> %d", state, d.RNGState())
	}

	p0 := NewDropout("d", 5, 0)
	p0.AdvanceSamples(10)
	x := onesBatch(2, 3)
	y := p0.Forward(x, true)
	for i, v := range y.Data {
		if math.Float32bits(v) != math.Float32bits(x.Data[i]) {
			t.Fatalf("P=0 layer changed element %d: %v -> %v", i, x.Data[i], v)
		}
	}
	if dx := p0.Backward(y); dx != y {
		t.Fatalf("P=0 layer masked its gradient")
	}
}

// TestAdvanceDropoutSamplesWalksEveryLayer: the tree-walking helper must hit
// every dropout under the root, leaving each layer's count where a
// sequential full-batch pass would.
func TestAdvanceDropoutSamplesWalksEveryLayer(t *testing.T) {
	const n, f = 6, 4
	build := func() (*Sequential, *Dropout, *Dropout) {
		d1 := NewDropout("d1", 11, 0.4)
		d2 := NewDropout("d2", 22, 0.2)
		return NewSequential("net", d1, NewSequential("inner", d2)), d1, d2
	}

	seqNet, s1, s2 := build()
	seqNet.Forward(onesBatch(n, f), true)

	nodeNet, n1, n2 := build()
	const hi = 2 // shard covers rows [0, hi)
	nodeNet.Forward(onesBatch(hi, f), true)
	AdvanceDropoutSamples(nodeNet, n-hi)

	if n1.RNGState() != s1.RNGState() || n2.RNGState() != s2.RNGState() {
		t.Fatalf("nested layers not advanced: (%d,%d) vs sequential (%d,%d)",
			n1.RNGState(), n2.RNGState(), s1.RNGState(), s2.RNGState())
	}
}

package nn_test

import (
	"fmt"
	"math"
	"testing"

	"dropback/internal/nn"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// slabTrial is one randomly drawn configuration for the slab-emission
// property test: a layer stack factory (deterministic per trial, so multiple
// replicas share weights and dropout streams), the per-sample input shape,
// and the class count.
type slabTrial struct {
	factory func() *nn.Model
	inShape []int
	classes int
}

// randSlabTrial draws a random shardable stack: either an MLP (optional
// dropout) or a conv stack (optional max-pool, optional dropout after
// flatten), with random widths. Every layer type drawn here must be on the
// CheckShardable whitelist.
func randSlabTrial(rng *xorshift.State64, trial int) slabTrial {
	seed := uint64(trial)*0x9E3779B97F4A7C15 + 7
	classes := 3 + int(rng.Uint32n(3))
	prefix := fmt.Sprintf("slab%d", trial)
	if rng.Uint32n(2) == 0 {
		in := 4 + int(rng.Uint32n(9))
		hidden := 3 + int(rng.Uint32n(8))
		drop := rng.Uint32n(2) == 0
		p := 0.1 + float32(rng.Uint32n(4))*0.1
		return slabTrial{
			factory: func() *nn.Model {
				layers := []nn.Layer{
					nn.NewLinear(prefix+"/fc1", seed, in, hidden),
					nn.NewReLU(prefix + "/r1"),
				}
				if drop {
					layers = append(layers, nn.NewDropout(prefix+"/do1", seed^0xD0, p))
				}
				layers = append(layers, nn.NewLinear(prefix+"/fc2", seed, hidden, classes))
				return nn.NewModel(nn.NewSequential(prefix, layers...), seed)
			},
			inShape: []int{in},
			classes: classes,
		}
	}
	ch := 1 + int(rng.Uint32n(2))
	hw := 5 + int(rng.Uint32n(3))
	oc := 2 + int(rng.Uint32n(3))
	pool := rng.Uint32n(2) == 0
	drop := rng.Uint32n(2) == 0
	noBias := rng.Uint32n(2) == 0
	spatial := hw
	if pool {
		spatial = (hw-2)/2 + 1
	}
	flat := oc * spatial * spatial
	return slabTrial{
		factory: func() *nn.Model {
			conv := nn.NewConv2D(prefix+"/c1", seed, ch, oc, 3, 1, 1)
			if noBias {
				conv = nn.NewConv2DNoBias(prefix+"/c1", seed, ch, oc, 3, 1, 1)
			}
			layers := []nn.Layer{conv, nn.NewReLU(prefix + "/r1")}
			if pool {
				layers = append(layers, nn.NewMaxPool2D(prefix+"/p1", 2, 2))
			}
			layers = append(layers, nn.NewFlatten(prefix+"/fl"))
			if drop {
				layers = append(layers, nn.NewDropout(prefix+"/do1", seed^0xD0, 0.25))
			}
			layers = append(layers, nn.NewLinear(prefix+"/fc", seed, flat, classes))
			return nn.NewModel(nn.NewSequential(prefix, layers...), seed)
		},
		inShape: []int{ch, hw, hw},
		classes: classes,
	}
}

// TestSlabEmissionMatchesPerSampleLoop is the slab-emission property test:
// for random shardable layer stacks, random batch sizes, and random shard
// partitions (including remainder shards and more shards than samples), the
// per-sample gradient slab produced by batched sub-batch passes with
// BindSampleSlab must be byte-equal to the slab a per-sample GradBinding
// loop produces — and reducing it with ZeroGrads+ReduceGradSlab must
// reproduce the full-batch sequential gradients bit for bit.
func TestSlabEmissionMatchesPerSampleLoop(t *testing.T) {
	rng := xorshift.NewState64(0x51AB)
	for trial := 0; trial < 25; trial++ {
		tr := randSlabTrial(rng, trial)
		n := 1 + int(rng.Uint32n(8))
		shards := 1 + int(rng.Uint32n(6)) // may exceed n: empty trailing shards
		ctx := fmt.Sprintf("trial %d (in=%v classes=%d n=%d shards=%d)", trial, tr.inShape, tr.classes, n, shards)

		x := randInput(uint64(trial)^0xABCD, append([]int{n}, tr.inShape...)...)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = int(rng.Uint32n(uint32(tr.classes)))
		}

		ref, sub, seq := tr.factory(), tr.factory(), tr.factory()
		total := ref.Set.Total()
		slabRef := make([]float32, n*total)
		slabSub := make([]float32, n*total)

		// Reference: the per-sample GradBinding loop (one batch-1
		// forward/backward per sample into its cleared slab row).
		bind := nn.NewGradBinding(ref.Set)
		rowLen := x.Len() / n
		sampleShape := append([]int{1}, tr.inShape...)
		for s := 0; s < n; s++ {
			bind.Bind(slabRef[s*total : (s+1)*total])
			xs := tensor.FromSlice(x.Data[s*rowLen:(s+1)*rowLen], sampleShape...)
			logits := ref.Net.Forward(xs, true)
			probs := tensor.SoftmaxRows(logits)
			_, dlogits := tensor.CrossEntropyFromProbsDenom(probs, labels[s:s+1], n)
			ref.Net.Backward(dlogits)
		}
		bind.Unbind()

		// Subject: one batched forward/backward per shard, emitting directly
		// into the global slab rows. Dropout handling mirrors the shard
		// executor: every shard starts from the pre-step sample count plus
		// its first row.
		initRNG := nn.CaptureLayerRNG(sub.Net)
		base, rem := n/shards, n%shards
		lo := 0
		for w := 0; w < shards; w++ {
			size := base
			if w < rem {
				size++
			}
			hi := lo + size
			if hi == lo {
				continue
			}
			nn.RestoreLayerRNG(sub.Net, initRNG)
			nn.AdvanceDropoutSamples(sub.Net, lo)
			sub.Set.BindSampleSlab(slabSub, lo)
			xs := tensor.ViewRowsInto(&tensor.Tensor{}, x, lo, hi)
			logits := sub.Net.Forward(xs, true)
			probs := tensor.SoftmaxRows(logits)
			dlogits := tensor.New(hi-lo, tr.classes)
			tensor.CrossEntropyFromProbsDenomInto(dlogits, nil, probs, labels[lo:hi], n)
			sub.Net.Backward(dlogits)
			sub.Set.UnbindSampleSlab()
			lo = hi
		}

		for i := range slabRef {
			if math.Float32bits(slabRef[i]) != math.Float32bits(slabSub[i]) {
				t.Fatalf("%s: slab scalar %d (sample %d, offset %d): per-sample %v vs batched %v",
					ctx, i, i/total, i%total, slabRef[i], slabSub[i])
			}
		}

		// Reducing the slab must reproduce the full-batch sequential
		// gradients exactly.
		seq.Step(x, labels)
		sub.Set.ZeroGrads()
		sub.Set.ReduceGradSlab(slabSub, n)
		sp, bp := seq.Set.Params(), sub.Set.Params()
		for i := range sp {
			for j := range sp[i].Grad.Data {
				if math.Float32bits(sp[i].Grad.Data[j]) != math.Float32bits(bp[i].Grad.Data[j]) {
					t.Fatalf("%s: %s grad[%d]: sequential %v vs reduced slab %v",
						ctx, sp[i].Name, j, sp[i].Grad.Data[j], bp[i].Grad.Data[j])
				}
			}
		}
	}
}

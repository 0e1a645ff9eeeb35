package quant_test

import (
	"dropback/internal/quant"
	"math"
	"testing"
	"testing/quick"

	"dropback"
	"dropback/internal/nn"
	"dropback/internal/sparse"
	"dropback/internal/xorshift"
)

func TestQuantizeRoundTripBound(t *testing.T) {
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = 0.3 * xorshift.IndexedNormal(1, uint64(i))
	}
	for _, bits := range []int{2, 4, 8} {
		q := quant.Quantize(vals, bits)
		back := q.Dequantize()
		bound := float64(q.MaxError()) * 1.0001
		for i := range vals {
			if math.Abs(float64(vals[i]-back[i])) > bound {
				t.Fatalf("bits=%d: value %v reconstructed %v, beyond bound %v", bits, vals[i], back[i], bound)
			}
		}
	}
}

func TestQuantizeErrorShrinksWithBits(t *testing.T) {
	vals := make([]float32, 500)
	for i := range vals {
		vals[i] = xorshift.IndexedNormal(2, uint64(i))
	}
	var prev float64 = math.Inf(1)
	for _, bits := range []int{2, 4, 6, 8} {
		q := quant.Quantize(vals, bits)
		back := q.Dequantize()
		var worst float64
		for i := range vals {
			if d := math.Abs(float64(vals[i] - back[i])); d > worst {
				worst = d
			}
		}
		if worst >= prev {
			t.Fatalf("error did not shrink: %v bits worst %v >= previous %v", bits, worst, prev)
		}
		prev = worst
	}
}

func TestQuantizeZeroRepresentable(t *testing.T) {
	// Zero must round-trip exactly: untracked weights depend on it.
	f := func(seed uint64) bool {
		vals := make([]float32, 64)
		for i := range vals {
			vals[i] = xorshift.IndexedNormal(seed, uint64(i))
		}
		vals[7] = 0
		q := quant.Quantize(vals, 8)
		return q.Dequantize()[7] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeDegenerateInputs(t *testing.T) {
	q := quant.Quantize(nil, 8)
	if len(q.Dequantize()) != 0 {
		t.Fatal("empty input must round-trip empty")
	}
	q = quant.Quantize([]float32{0, 0, 0}, 4)
	for _, v := range q.Dequantize() {
		if v != 0 {
			t.Fatal("all-zero input must reconstruct zeros")
		}
	}
	q = quant.Quantize([]float32{5, 5}, 8) // constant positive
	back := q.Dequantize()
	if math.Abs(float64(back[0]-5)) > float64(q.MaxError())*1.001 {
		t.Fatalf("constant input reconstructed %v", back[0])
	}
}

// TestQuantizeRoundTripPropertyAllBits drives every legal bit width over
// random and degenerate value blocks: dequantized values must stay within
// one scale step of the original, and code 0 must decode near 0.0 (exactly
// 0.0 whenever the block contains no negative values, since the range is
// forced to include zero).
func TestQuantizeRoundTripPropertyAllBits(t *testing.T) {
	blocks := map[string]func(seed uint64) []float32{
		"random": func(seed uint64) []float32 {
			vals := make([]float32, 257)
			for i := range vals {
				vals[i] = 0.5 * xorshift.IndexedNormal(seed, uint64(i))
			}
			return vals
		},
		"all-zero": func(uint64) []float32 { return make([]float32, 64) },
		"all-constant-positive": func(seed uint64) []float32 {
			vals := make([]float32, 32)
			c := 0.25 + float32(seed%7)*0.5
			for i := range vals {
				vals[i] = c
			}
			return vals
		},
		"all-constant-negative": func(seed uint64) []float32 {
			vals := make([]float32, 32)
			c := -0.25 - float32(seed%7)*0.5
			for i := range vals {
				vals[i] = c
			}
			return vals
		},
		"all-negative": func(seed uint64) []float32 {
			vals := make([]float32, 128)
			for i := range vals {
				vals[i] = -0.01 - absf(xorshift.IndexedNormal(seed, uint64(i)))
			}
			return vals
		},
	}
	for name, gen := range blocks {
		for bits := 1; bits <= 8; bits++ {
			f := func(seed uint64) bool {
				vals := gen(seed)
				q := quant.Quantize(vals, bits)
				if q.Bits != bits || len(q.Codes) != len(vals) {
					return false
				}
				back := q.Dequantize()
				// One full scale step bounds every in-range value (MaxError
				// is half a step; the extra half absorbs the clamp at the
				// range edges and float rounding in Zero).
				bound := float64(q.Scale) * 1.0001
				for i := range vals {
					if math.Abs(float64(vals[i]-back[i])) > bound {
						t.Logf("%s bits=%d: value %v -> %v beyond %v", name, bits, vals[i], back[i], bound)
						return false
					}
				}
				// Code 0 decodes to -Scale*Zero, which must sit within one
				// step of the bottom of the covered range and, because the
				// range includes zero, can never be far below the most
				// negative representable value.
				zeroDecoded := float64(q.Scale * float32(0-q.Zero))
				if q.Zero == 0 && zeroDecoded != 0 {
					return false // non-negative block: code 0 IS zero
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatalf("%s bits=%d: %v", name, bits, err)
			}
		}
	}
}

// TestQuantizeCodeZeroNearZero pins the deployment-critical property: a
// weight equal to 0.0 (an untracked, never-deviated weight) quantizes to a
// code that decodes back to within half a step of 0.0 at every width.
func TestQuantizeCodeZeroNearZero(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		vals := []float32{-1.5, 0, 0.75, 0.1, -0.2}
		q := quant.Quantize(vals, bits)
		back := q.Dequantize()
		if math.Abs(float64(back[1])) > float64(q.MaxError())*1.0001 {
			t.Fatalf("bits=%d: 0.0 decoded to %v, beyond half-step %v", bits, back[1], q.MaxError())
		}
	}
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestQuantizeBadBitsPanics(t *testing.T) {
	for _, bits := range []int{0, 9, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for bits=%d", bits)
				}
			}()
			quant.Quantize([]float32{1}, bits)
		}()
	}
}

func TestStorageBits(t *testing.T) {
	q := quant.Quantize(make([]float32, 100), 4)
	if q.StorageBits() != 64+400 {
		t.Fatalf("StorageBits = %d, want 464", q.StorageBits())
	}
}

func TestArtifactQuantizationEndToEnd(t *testing.T) {
	// DropBack + quantization: the combined artifact must be smaller than
	// the float artifact and still yield near-identical accuracy.
	ds := dropback.MNISTLike(300, 21).Flatten()
	train, val := ds.Split(240)
	m := dropback.MNIST100100(21)
	dropback.Train(m, train, val, dropback.TrainConfig{
		Method: dropback.MethodDropBack, Budget: 5000, FreezeAfterEpoch: 1,
		Epochs: 3, BatchSize: 32, Seed: 21,
	})
	_, accFloat := dropback.Evaluate(m, val, 32)

	a := sparse.Compress(m)
	qa, err := quant.Compress(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if qa.StorageBytes() >= a.StorageBytes() {
		t.Fatalf("quantized artifact %d B not below float artifact %d B", qa.StorageBytes(), a.StorageBytes())
	}
	fresh := dropback.MNIST100100(21)
	if err := qa.Decompress().Apply(fresh); err != nil {
		t.Fatal(err)
	}
	_, accQuant := dropback.Evaluate(fresh, val, 32)
	// 8-bit codes keep accuracy unchanged up to borderline samples whose
	// argmax sits within the half-step reconstruction error: allow at most
	// one flipped prediction on the validation set.
	if math.Abs(accFloat-accQuant) > 1.0/float64(val.Len())+1e-9 {
		t.Fatalf("8-bit quantization changed accuracy %.4f -> %.4f (more than one sample)", accFloat, accQuant)
	}
}

func TestArtifactPreservesIndicesAndBNs(t *testing.T) {
	a := &sparse.Artifact{
		ModelSeed: 9, TotalParams: 100,
		Entries: []sparse.Entry{{Index: 3, Value: 0.5}, {Index: 50, Value: -0.25}},
		BNs:     []nn.BNStats{{Name: "bn", RunningMean: []float32{1}, RunningVar: []float32{2}}},
	}
	qa, err := quant.Compress(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	back := qa.Decompress()
	if back.ModelSeed != 9 || back.TotalParams != 100 {
		t.Fatal("header lost")
	}
	if back.Entries[0].Index != 3 || back.Entries[1].Index != 50 {
		t.Fatal("indices must be exact")
	}
	if len(back.BNs) != 1 || back.BNs[0].RunningMean[0] != 1 {
		t.Fatal("BN stats lost")
	}
	if math.Abs(float64(back.Entries[0].Value-0.5)) > float64(qa.Values.MaxError())*1.001 {
		t.Fatalf("value 0 reconstructed %v", back.Entries[0].Value)
	}
}

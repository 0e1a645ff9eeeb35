// Package quant implements uniform affine quantization of weight values,
// the technique §5 of the paper identifies as orthogonal to DropBack
// ("Quantization is orthogonal to DropBack, and the two techniques can be
// combined"). Combining them shrinks the sparse deployment artifact
// further: each stored weight drops from a 4-byte float to a b-bit code
// plus a shared (scale, zero-point) pair per artifact.
package quant

import (
	"fmt"
	"math"

	"dropback/internal/nn"
	"dropback/internal/sparse"
)

// Tensor is a uniformly quantized value block: value ≈ Scale·(code − Zero).
type Tensor struct {
	// Bits is the code width (1..8).
	Bits int
	// Scale maps code steps back to float values.
	Scale float32
	// Zero is the code representing 0.0.
	Zero int32
	// Codes holds one code per value (one byte each regardless of Bits;
	// StorageBytes accounts at the bit level).
	Codes []uint8
}

// ValidateBits reports whether bits is a legal code width. User-supplied
// widths (CLI flags, request fields) must pass through this — or through
// Compress, which calls it — so that a bad value surfaces as an error at
// the boundary instead of a panic from library code.
func ValidateBits(bits int) error {
	if bits < 1 || bits > 8 {
		return fmt.Errorf("quant: bits must be 1..8, got %d", bits)
	}
	return nil
}

// Quantize builds a b-bit uniform affine quantization of vals covering
// [min(vals), max(vals)]. bits must already be validated (ValidateBits);
// an out-of-range width here is a programmer error and panics.
func Quantize(vals []float32, bits int) Tensor {
	if err := ValidateBits(bits); err != nil {
		panic(err.Error())
	}
	q := Tensor{Bits: bits, Codes: make([]uint8, len(vals))}
	if len(vals) == 0 {
		q.Scale = 1
		return q
	}
	mn, mx := vals[0], vals[0]
	for _, v := range vals {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	// The range must include zero so that untouched weights dequantize to
	// exactly representable values near zero.
	if mn > 0 {
		mn = 0
	}
	if mx < 0 {
		mx = 0
	}
	levels := float32(int32(1)<<bits - 1)
	if mx == mn {
		q.Scale = 1
		q.Zero = 0
		return q
	}
	q.Scale = (mx - mn) / levels
	q.Zero = int32(roundf(-mn / q.Scale))
	for i, v := range vals {
		code := roundf(v/q.Scale) + q.Zero
		if code < 0 {
			code = 0
		}
		if code > int32(levels) {
			code = int32(levels)
		}
		q.Codes[i] = uint8(code)
	}
	return q
}

func roundf(v float32) int32 {
	return int32(math.Round(float64(v)))
}

// Dequantize reconstructs the float values.
func (q Tensor) Dequantize() []float32 {
	out := make([]float32, len(q.Codes))
	for i, c := range q.Codes {
		out[i] = q.Scale * float32(int32(c)-q.Zero)
	}
	return out
}

// MaxError returns the worst-case reconstruction error bound, Scale/2.
func (q Tensor) MaxError() float32 { return q.Scale / 2 }

// StorageBits returns the bit footprint of the codes plus the 64-bit
// (scale, zero) header.
func (q Tensor) StorageBits() int { return 64 + q.Bits*len(q.Codes) }

// Artifact is a sparse deployment artifact with quantized weight values:
// indices stay exact, values are b-bit codes.
type Artifact struct {
	ModelSeed   uint64
	TotalParams int
	Indices     []uint32
	Values      Tensor
	BNs         []nn.BNStats
}

// Compress quantizes a sparse artifact's stored values to the given bit
// width. An out-of-range width is reported as an error, so unvalidated
// user input can flow here directly.
func Compress(a *sparse.Artifact, bits int) (*Artifact, error) {
	if err := ValidateBits(bits); err != nil {
		return nil, err
	}
	vals := make([]float32, len(a.Entries))
	idx := make([]uint32, len(a.Entries))
	for i, e := range a.Entries {
		vals[i] = e.Value
		idx[i] = e.Index
	}
	return &Artifact{
		ModelSeed:   a.ModelSeed,
		TotalParams: a.TotalParams,
		Indices:     idx,
		Values:      Quantize(vals, bits),
		BNs:         a.BNs,
	}, nil
}

// Decompress reconstructs a (lossy) sparse artifact.
func (qa *Artifact) Decompress() *sparse.Artifact {
	vals := qa.Values.Dequantize()
	out := &sparse.Artifact{
		ModelSeed:   qa.ModelSeed,
		TotalParams: qa.TotalParams,
		BNs:         qa.BNs,
	}
	out.Entries = make([]sparse.Entry, len(qa.Indices))
	for i := range qa.Indices {
		out.Entries[i] = sparse.Entry{Index: qa.Indices[i], Value: vals[i]}
	}
	return out
}

// StorageBytes returns the quantized artifact's weight-storage footprint:
// 4-byte indices, b-bit codes, the quantization header, BN statistics and
// the seed.
func (qa *Artifact) StorageBytes() int {
	n := 8 + 4*len(qa.Indices) + (qa.Values.StorageBits()+7)/8
	for _, b := range qa.BNs {
		n += 8 * len(b.RunningMean)
	}
	return n
}

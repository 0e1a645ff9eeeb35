// Package nn implements a layer-based neural-network training stack with
// manual backpropagation: parameters, layers (linear, convolution, batch
// normalization, activations, pooling, dropout), composite blocks (residual
// add, dense concatenation), and the softmax-cross-entropy loss.
//
// Every trainable scalar in a model is addressable through a ParamSet, which
// assigns a stable flat global index to each element. That flat address
// space is the contract DropBack's tracked set and the xorshift regenerator
// operate over: "seed + index" is all that is needed to recompute any
// untracked weight's initialization value.
package nn

import (
	"fmt"
	"hash/fnv"

	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// Param is one trainable tensor: its current value, the gradient accumulated
// by the latest backward pass, and the initialization recipe that allows any
// element's initial value to be regenerated from its flat index.
//
// A weight has one of two storages. By default Value holds every element.
// With CSR set, the layers compute from the CSR instead: tracked entries
// stored, the rest regenerated from Init row by row. core.DropBack moves a
// training weight there (Virtualize) and back (Devirtualize); while it is
// there, Value is a host copy that DropBack.Densify refreshes at epoch
// boundaries. A compiled sparse.Plan's weights are CSR only, with no Value.
// Model.Replica makes new Params that share both storages with the source.
type Param struct {
	// Name is the globally unique parameter name, "layer/param".
	Name string
	// ID is a stable 64-bit identifier derived from Name; it seeds the
	// tensor's regeneration stream so no two tensors alias.
	ID    uint64
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	// CSR, when set, is the storage the layers read (see above).
	CSR *CSR
	// Init regenerates initialization values by flat element index.
	Init xorshift.Init

	// Per-sample slab-emission state, armed by ParamSet.BindSampleSlab:
	// while slabRows is non-nil, slab-aware layers write sample s's
	// parameter-gradient partial into SampleGrad(s) instead of accumulating
	// into Grad. slabRows is already offset to the sub-batch's first sample;
	// slabOff is this parameter's offset within a row of slabStride scalars.
	slabRows   []float32
	slabStride int
	slabOff    int
}

// SlabBound reports whether per-sample slab emission is armed (see
// ParamSet.BindSampleSlab). Layers with parameters consult it in Backward
// to pick between in-place gradient accumulation and per-sample emission.
func (p *Param) SlabBound() bool { return p.slabRows != nil }

// SampleGrad returns the slab segment that must receive local sample s's
// gradient partial for this parameter: Len() scalars that the layer fully
// overwrites. Only valid while SlabBound.
func (p *Param) SampleGrad(s int) []float32 {
	off := s*p.slabStride + p.slabOff
	return p.slabRows[off : off+p.Len()]
}

// NewParam builds a parameter of the given shape, initialized by kind/scale
// from the model seed, with a zeroed gradient buffer.
func NewParam(name string, modelSeed uint64, kind xorshift.InitKind, scale float32, shape ...int) *Param {
	id := NameID(name)
	p := &Param{
		Name:  name,
		ID:    id,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
		Init: xorshift.Init{
			Kind:  kind,
			Seed:  xorshift.TensorSeed(modelSeed, id),
			Scale: scale,
		},
	}
	p.Init.Fill(p.Value.Data)
	return p
}

// NameID hashes a parameter name to its stable 64-bit identifier (FNV-1a).
func NameID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// ZeroGrad clears the gradient buffer.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Len returns the number of scalar elements in the parameter.
func (p *Param) Len() int {
	if p.Value == nil {
		return p.CSR.Rows * p.CSR.RowLen
	}
	return p.Value.Len()
}

// row returns columns [lo, hi) of row r of a weight viewed as rows of
// rowLen: a slice of Value on dense storage, or buf filled by
// CSR.FillRowRange. The layers' kernels walk weights through it, so each
// runs one loop over either storage.
func (p *Param) row(buf []float32, r, rowLen, lo, hi int) []float32 {
	if p.CSR != nil {
		p.CSR.FillRowRange(buf, r, lo, hi)
		return buf[:hi-lo]
	}
	return p.Value.Data[r*rowLen+lo : r*rowLen+hi]
}

// rowBufs returns one row buffer of rowLen floats per worker chunk from ws
// for a CSR weight, and nil on dense storage, whose rows need no buffer.
func (p *Param) rowBufs(ws *tensor.Workspace, chunks, rowLen int) []float32 {
	if p.CSR == nil {
		return nil
	}
	return ws.GetRaw("wrow", chunks, rowLen).Data
}

// chunkBuf is chunk c's row buffer within bufs (nil on dense storage).
func chunkBuf(bufs []float32, c, rowLen int) []float32 {
	if bufs == nil {
		return nil
	}
	return bufs[c*rowLen : (c+1)*rowLen]
}

// trackedGrad reports whether the backward pass writes this weight's
// gradient to CSR.TGrad at the tracked indices only, which it does once a
// CSR weight's selection is frozen.
func (p *Param) trackedGrad() bool { return p.CSR != nil && p.CSR.TGrad != nil }

// ParamSet is the flat global address space over every trainable scalar of a
// model. Parameters are laid out in registration order; element j of
// parameter i has global index Offset(i)+j. The layout is stable across runs
// because models register parameters in deterministic construction order.
type ParamSet struct {
	params  []*Param
	offsets []int
	total   int
	byName  map[string]int
}

// NewParamSet collects the parameters of the given layers, in order.
func NewParamSet(layers ...Layer) *ParamSet {
	ps := &ParamSet{byName: make(map[string]int)}
	for _, l := range layers {
		for _, p := range l.Params() {
			ps.Register(p)
		}
	}
	return ps
}

// Register appends a parameter to the address space. Duplicate names are
// rejected: they would alias regeneration streams.
func (ps *ParamSet) Register(p *Param) {
	if _, dup := ps.byName[p.Name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
	}
	ps.byName[p.Name] = len(ps.params)
	ps.params = append(ps.params, p)
	ps.offsets = append(ps.offsets, ps.total)
	ps.total += p.Len()
}

// Total returns the number of trainable scalars.
func (ps *ParamSet) Total() int { return ps.total }

// Params returns the registered parameters in layout order.
func (ps *ParamSet) Params() []*Param { return ps.params }

// Offset returns the global index of element 0 of parameter i.
func (ps *ParamSet) Offset(i int) int { return ps.offsets[i] }

// ByName returns the parameter with the given name, or nil.
func (ps *ParamSet) ByName(name string) *Param {
	if i, ok := ps.byName[name]; ok {
		return ps.params[i]
	}
	return nil
}

// Locate maps a global index to (parameter index, element offset).
func (ps *ParamSet) Locate(global int) (param int, elem int) {
	if global < 0 || global >= ps.total {
		panic(fmt.Sprintf("nn: global index %d out of range [0,%d)", global, ps.total))
	}
	// Binary search over offsets.
	lo, hi := 0, len(ps.offsets)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ps.offsets[mid] <= global {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, global - ps.offsets[lo]
}

// Get returns the current value of the scalar at a global index.
func (ps *ParamSet) Get(global int) float32 {
	p, e := ps.Locate(global)
	return ps.params[p].Value.Data[e]
}

// Set writes the scalar at a global index.
func (ps *ParamSet) Set(global int, v float32) {
	p, e := ps.Locate(global)
	ps.params[p].Value.Data[e] = v
}

// GetGrad returns the gradient of the scalar at a global index.
func (ps *ParamSet) GetGrad(global int) float32 {
	p, e := ps.Locate(global)
	return ps.params[p].Grad.Data[e]
}

// InitialValue regenerates the initialization-time value of the scalar at a
// global index — without consulting any stored copy of the initial weights.
func (ps *ParamSet) InitialValue(global int) float32 {
	p, e := ps.Locate(global)
	return ps.params[p].Init.Regenerate(e)
}

// Snapshot copies all current values into a fresh flat vector in global
// index order (used by the diffusion/PCA probes).
func (ps *ParamSet) Snapshot() []float32 {
	out := make([]float32, ps.total)
	for i, p := range ps.params {
		copy(out[ps.offsets[i]:], p.Value.Data)
	}
	return out
}

// Restore writes a flat vector (in global index order) back into the
// parameters. len(v) must equal Total.
func (ps *ParamSet) Restore(v []float32) {
	if len(v) != ps.total {
		panic(fmt.Sprintf("nn: Restore length %d != total %d", len(v), ps.total))
	}
	for i, p := range ps.params {
		copy(p.Value.Data, v[ps.offsets[i]:ps.offsets[i]+p.Len()])
	}
}

// ZeroGrads clears all gradient buffers.
func (ps *ParamSet) ZeroGrads() {
	for _, p := range ps.params {
		p.ZeroGrad()
	}
}

package dropback

import (
	"fmt"
	"sync"
	"time"

	"dropback/internal/nn"
	"dropback/internal/telemetry"
	"dropback/internal/tensor"
)

// shardRange is one worker's contiguous span of batch rows, [Lo, Hi).
type shardRange struct{ Lo, Hi int }

// shardRanges partitions n batch rows across w workers into contiguous
// spans: every row appears in exactly one span, spans cover 0…n−1 in
// ascending order, and sizes differ by at most one (the first n%w spans get
// the extra row). With w > n the trailing spans are empty.
func shardRanges(n, w int) []shardRange {
	if w < 1 {
		w = 1
	}
	return shardRangesInto(make([]shardRange, w), n)
}

// shardRangesInto fills out (one span per element) with the contiguous
// partition of n rows across len(out) workers, allocation-free.
func shardRangesInto(out []shardRange, n int) []shardRange {
	w := len(out)
	base, rem := n/w, n%w
	lo := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = shardRange{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// parallelExecutor runs one training step's forward/backward across W
// workers, bit-identically to the sequential Model.Step. Each worker runs ONE
// batched forward/backward over its contiguous sub-batch — a view of the
// input rows, through the same batched kernels the sequential path uses — and
// the backward pass emits per-sample parameter-gradient partials into a
// global slab (one row of ParamSet.Total() scalars per batch sample, armed
// via ParamSet.BindSampleSlab with the shard's first global sample index as
// base).
//
// Bit-identity holds because every kernel in this stack treats batch rows
// independently in forward (so shard logits are bitwise the sequential
// rows), per-sample partials are computed by the same kernels a batch-1
// backward runs (Linear: the k=1 MatMulTransASlice; Conv2D: the per-sample
// MatMulTransBSlice it always uses), and reducing slab rows in ascending
// global sample order replays the full-batch accumulation's rounding
// sequence exactly (matmuls accumulate ascending-k from a cleared buffer,
// the bias loops walk samples ascending) — at any worker count and any
// GOMAXPROCS. Dropout mask streams stay aligned because batched draws are
// row-major ascending and each replica's stream is positioned at its
// shard's first sample via ArmDropoutSkip. See DESIGN.md §8.
//
// Worker 0 runs the primary model on the calling goroutine; workers 1…W−1
// run structurally identical replicas whose parameter Value tensors alias
// the primary's (read-only during the pass; the join provides the
// happens-before edge the post-reduction optimizer update needs).
type parallelExecutor struct {
	shardBuffers
	primary  *Model
	replicas []*Model // replicas[0] == primary
	workers  int

	ranges  []shardRange        // cached per-step shard partition
	views   []*tensor.Tensor    // per-worker sub-batch view headers
	scratch []*tensor.Workspace // per-worker loss-head buffers (probs, dlogits)

	hasRNG   bool // any stochastic (Dropout) layers to keep in sync
	rec      telemetry.Recorder
	shardDur []time.Duration
}

// newParallelExecutor validates the model for shard-parallel training and
// builds workers−1 replicas with the factory. Factory models must be
// structurally identical to the primary (same parameters, names, shapes) —
// in practice, built by the same constructor with the same seed.
func newParallelExecutor(m *Model, workers int, factory func() (*Model, error), rec telemetry.Recorder) (*parallelExecutor, error) {
	if workers < 2 {
		return nil, fmt.Errorf("dropback: parallel executor needs at least 2 workers, got %d", workers)
	}
	if factory == nil {
		return nil, fmt.Errorf("dropback: Workers = %d requires a WorkerModel factory to build the %d extra replicas", workers, workers-1)
	}
	if err := nn.CheckShardable(m.Net); err != nil {
		return nil, fmt.Errorf("dropback: model is not shard-parallel safe: %w", err)
	}
	e := &parallelExecutor{
		shardBuffers: shardBuffers{total: m.Set.Total()},
		primary:      m,
		replicas:     make([]*Model, workers),
		workers:      workers,
		ranges:       make([]shardRange, workers),
		views:        make([]*tensor.Tensor, workers),
		scratch:      make([]*tensor.Workspace, workers),
		hasRNG:       len(nn.CaptureLayerRNG(m.Net)) > 0,
		rec:          telemetry.OrNop(rec),
		shardDur:     make([]time.Duration, workers),
	}
	e.replicas[0] = m
	primaryParams := m.Set.Params()
	for w := 1; w < workers; w++ {
		r, err := factory()
		if err != nil {
			return nil, fmt.Errorf("dropback: building worker replica %d: %w", w, err)
		}
		if r == nil || r == m {
			return nil, fmt.Errorf("dropback: WorkerModel must build a fresh model per call")
		}
		rp := r.Set.Params()
		if len(rp) != len(primaryParams) || r.Set.Total() != e.total {
			return nil, fmt.Errorf("dropback: worker replica %d has %d parameters (%d scalars), primary has %d (%d)",
				w, len(rp), r.Set.Total(), len(primaryParams), e.total)
		}
		for i, p := range primaryParams {
			if rp[i].Name != p.Name || !rp[i].Value.SameShape(p.Value) {
				return nil, fmt.Errorf("dropback: worker replica %d parameter %d is %q %v, primary has %q %v",
					w, i, rp[i].Name, rp[i].Value.Shape, p.Name, p.Value.Shape)
			}
			// Alias the weights: replicas read the primary's parameter
			// values directly, so the post-reduction update is visible to
			// every worker at the next step without any copying.
			rp[i].Value = p.Value
		}
		e.replicas[w] = r
	}
	for w := 0; w < workers; w++ {
		e.views[w] = &tensor.Tensor{}
		e.scratch[w] = tensor.NewWorkspace()
	}
	return e, nil
}

// Step runs one shard-parallel training step: a batched forward/backward per
// worker over its sub-batch, deterministic reduction of the per-sample
// gradient slab rows into the primary's gradient buffers, and the same
// loss/accuracy reduction arithmetic as the sequential path. On return the
// primary model holds exactly the gradients, dropout-stream positions, loss,
// and accuracy that Model.Step would have produced.
func (e *parallelExecutor) Step(x *tensor.Tensor, labels []int) (loss, acc float64) {
	n := x.Shape[0]
	e.size(n)
	ranges := shardRangesInto(e.ranges, n)
	// Position each replica's stochastic streams where the sequential pass
	// would be at its shard's first sample: same state as the primary, then
	// skip the preceding samples' draws.
	if e.hasRNG {
		states := nn.CaptureLayerRNG(e.primary.Net)
		for w := 1; w < e.workers; w++ {
			if ranges[w].Lo >= ranges[w].Hi {
				continue
			}
			nn.RestoreLayerRNG(e.replicas[w].Net, states)
			nn.ArmDropoutSkip(e.replicas[w].Net, ranges[w].Lo)
		}
	}

	timing := e.rec.Enabled()
	var wg sync.WaitGroup
	for w := 1; w < e.workers; w++ {
		if ranges[w].Lo >= ranges[w].Hi {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var start time.Time
			if timing {
				start = time.Now()
			}
			e.runShard(e.replicas[w], e.views[w], e.scratch[w], ranges[w], x, labels)
			if timing {
				e.shardDur[w] = time.Since(start)
			}
		}(w)
	}
	var start time.Time
	if timing {
		start = time.Now()
	}
	e.runShard(e.primary, e.views[0], e.scratch[0], ranges[0], x, labels)
	if timing {
		e.shardDur[0] = time.Since(start)
	}
	wg.Wait()

	// The primary's streams must end where the sequential pass would: at
	// the position after the last sample, which the last non-empty shard's
	// replica holds.
	if e.hasRNG {
		last := e.workers - 1
		for last > 0 && ranges[last].Lo >= ranges[last].Hi {
			last--
		}
		if last != 0 {
			nn.RestoreLayerRNG(e.primary.Net, nn.CaptureLayerRNG(e.replicas[last].Net))
		}
	}

	loss, acc = e.fold(e.primary.Set)
	if timing {
		for w := 0; w < e.workers; w++ {
			if ranges[w].Lo < ranges[w].Hi {
				e.rec.Counter(telemetry.CounterTrainShardSeconds, e.shardDur[w].Seconds())
			}
		}
	}
	return loss, acc
}

// shardBuffers is the batch-wide state both shard executors share: the
// per-sample gradient slab and the per-sample loss and correctness rows
// that shards fill in disjoint ranges and fold reduces.
type shardBuffers struct {
	total      int       // ParamSet.Total()
	slab       []float32 // per-sample gradient rows, sample s at s*total
	perLoss    []float64 // per-sample −log-likelihood contributions
	perCorrect []uint8   // per-sample argmax-correct flags
}

// size grows the buffers to an n-sample batch and trims the per-sample
// rows to exactly n.
func (b *shardBuffers) size(n int) {
	if need := n * b.total; cap(b.slab) < need {
		b.slab = make([]float32, need)
	}
	if cap(b.perLoss) < n {
		b.perLoss = make([]float64, n)
		b.perCorrect = make([]uint8, n)
	}
	b.perLoss, b.perCorrect = b.perLoss[:n], b.perCorrect[:n]
}

// runShard processes rows [r.Lo, r.Hi) on model m as ONE batched
// forward/backward: the sub-batch is a zero-copy view of the input rows
// (built in view), the loss head reuses the workspace sc, and the backward
// pass emits each sample's parameter-gradient partials into its global slab
// row (ParamSet.BindSampleSlab). Emission fully overwrites every (sample,
// parameter) slab segment, so rows are not cleared first. Shards of one
// batch may run concurrently: each writes only its own rows.
func (b *shardBuffers) runShard(m *Model, view *tensor.Tensor, sc *tensor.Workspace, r shardRange, x *tensor.Tensor, labels []int) {
	if r.Lo >= r.Hi {
		return
	}
	sub := r.Hi - r.Lo
	xs := tensor.ViewRowsInto(view, x, r.Lo, r.Hi)
	m.Set.BindSampleSlab(b.slab, r.Lo)
	defer m.Set.UnbindSampleSlab()
	logits := m.Net.Forward(xs, true)
	classes := logits.Shape[1]
	probs := tensor.SoftmaxRowsInto(sc.GetRaw("probs", sub, classes), logits)
	dlogits := sc.GetRaw("dlogits", sub, classes)
	// The global batch size is the denominator, so each row's dlogits and
	// −log term are bit-identical to the full-batch pass's row.
	tensor.CrossEntropyFromProbsDenomInto(dlogits, b.perLoss[r.Lo:r.Hi], probs, labels[r.Lo:r.Hi], len(b.perLoss))
	for i := 0; i < sub; i++ {
		row := logits.Data[i*classes : (i+1)*classes]
		best := 0
		for j := 1; j < classes; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if best == labels[r.Lo+i] {
			b.perCorrect[r.Lo+i] = 1
		} else {
			b.perCorrect[r.Lo+i] = 0
		}
	}
	m.Net.Backward(dlogits)
}

// fold reduces the complete slab into set's gradient buffers in ascending
// sample order per element — the exact zero-then-accumulate sequence of the
// sequential backward pass — and returns the batch loss and accuracy. The
// sequential path folds −log(p_s+ε) into a float64 ascending s and divides
// once; perLoss already holds each sample's −log term, so the loss loop
// replays the identical float64 operation sequence.
func (b *shardBuffers) fold(set *nn.ParamSet) (loss, acc float64) {
	n := len(b.perLoss)
	set.ZeroGrads()
	set.ReduceGradSlab(b.slab, n)
	for s := 0; s < n; s++ {
		loss += b.perLoss[s]
	}
	loss /= float64(n)
	correct := 0
	for s := 0; s < n; s++ {
		correct += int(b.perCorrect[s])
	}
	return loss, float64(correct) / float64(n)
}

package dropback

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"dropback/internal/core"
	"dropback/internal/dist"
	"dropback/internal/nn"
	"dropback/internal/telemetry"
	"dropback/internal/tensor"
)

// shardRange is one worker's contiguous span of batch rows, [Lo, Hi).
type shardRange struct{ Lo, Hi int }

// shardRangesInto fills out (one span per element) with the contiguous
// partition of n rows across len(out) workers, allocation-free: every row
// appears in exactly one span, spans cover 0…n−1 in ascending order, and
// sizes differ by at most one (the first n%len(out) spans get the extra
// row). With more spans than rows the trailing spans are empty.
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

// shardExecutor runs one training step's forward/backward across the ranks
// of a dist.Cluster and, within this rank, across W local workers,
// bit-identically to the sequential Model.Step. In-process the world is one
// rank that owns the whole minibatch. Each busy worker runs ONE batched
// forward/backward over its contiguous sub-batch — a view of the input
// rows, through the same batched kernels the sequential path uses — and the
// backward pass emits per-sample parameter-gradient partials into a global
// slab (one row of ParamSet.Total() scalars per batch sample, armed via
// ParamSet.BindSampleSlab with the shard's first global sample index as
// base). A joined rank then combines its rows with its peers': while the
// exchange is dense it continues its predecessor's running sums and passes
// them down the rank chain, and once DropBack freezes it exchanges its
// tracked-value rows with every peer and every rank reduces the complete
// slab.
//
// Bit-identity holds because every kernel in this stack treats batch rows
// independently in forward (so shard logits are bitwise the sequential
// rows), per-sample partials are computed by the same kernels a batch-1
// backward runs (Linear: the k=1 MatMulTransASlice; Conv2D: the per-sample
// MatMulTransBSlice it always uses), and reducing slab rows in ascending
// global sample order replays the full-batch accumulation's rounding
// sequence exactly (matmuls accumulate ascending-k from a cleared buffer,
// the bias loops walk samples ascending) — at any rank count, any worker
// count per rank and any GOMAXPROCS. Dropout masks stay aligned because
// each mask row is addressed by its global sample index: every busy worker
// starts from the primary's sample count plus its shard's first row. See
// DESIGN.md §8, and §12 for the exchange.
//
// Worker 0 runs the primary model on the calling goroutine; workers 1…W−1
// run replicas of it (nn.Model.Replica) that share its weight storage
// (read-only during the pass; the join provides the happens-before edge the
// post-reduction optimizer update needs). The worker count is local: ranks
// of one cluster may run different W.
type shardExecutor struct {
	primary  *Model
	replicas []*Model // replicas[0] == primary

	total      int       // ParamSet.Total()
	slab       []float32 // per-sample gradient rows, sample s at s*total
	perLoss    []float64 // per-sample −log-likelihood contributions
	perCorrect []uint8   // per-sample argmax-correct flags

	ranks   []shardRange        // per-rank partition of the batch (one rank in-process)
	ranges  []shardRange        // per-worker partition of this rank's rows
	views   []*tensor.Tensor    // per-worker sub-batch view headers
	scratch []*tensor.Workspace // per-worker loss-head buffers (probs, dlogits)

	hasRNG bool // any stochastic (Dropout) layers to keep in sync

	rec      telemetry.Recorder
	shardDur []time.Duration

	// The rest is set by join; cluster is nil in-process.
	cluster *dist.Cluster
	db      *core.DropBack // nil for the SGD baseline
	rank    int
	step    uint64
	sendBuf []byte
	// trackedIdx caches the ascending tracked-index list once DropBack
	// freezes (the set never changes afterwards).
	trackedIdx         []int32
	idxCached          bool
	lastSent, lastRecv int64
	err                error // sticky: the first exchange failure poisons the executor
}

// newShardExecutor validates the model for shard-parallel training and
// builds workers−1 replicas of it (nn.Model.Replica).
func newShardExecutor(m *Model, workers int, rec telemetry.Recorder) (*shardExecutor, error) {
	if err := nn.CheckShardable(m.Net); err != nil {
		return nil, fmt.Errorf("dropback: model is not shard-parallel safe: %w", err)
	}
	e := &shardExecutor{
		primary:  m,
		replicas: make([]*Model, workers),
		total:    m.Set.Total(),
		ranks:    make([]shardRange, 1),
		ranges:   make([]shardRange, workers),
		views:    make([]*tensor.Tensor, workers),
		scratch:  make([]*tensor.Workspace, workers),
		hasRNG:   len(nn.CaptureLayerRNG(m.Net)) > 0,
		rec:      telemetry.OrNop(rec),
		shardDur: make([]time.Duration, workers),
	}
	e.replicas[0] = m
	for w := 1; w < workers; w++ {
		r, err := m.Replica()
		if err != nil {
			return nil, fmt.Errorf("dropback: building worker replica %d: %w", w, err)
		}
		e.replicas[w] = r
	}
	for w := 0; w < workers; w++ {
		e.views[w] = &tensor.Tensor{}
		e.scratch[w] = tensor.NewWorkspace()
	}
	return e, nil
}

// modelHash fingerprints the parameter space (names, shapes, registration
// order) so the handshake refuses structurally different models before any
// gradient crosses the wire.
func modelHash(set *nn.ParamSet) uint64 {
	h := fnv.New64a()
	for _, p := range set.Params() {
		h.Write([]byte(p.Name))
		h.Write([]byte{0})
		for _, d := range p.Value.Shape {
			var b [4]byte
			b[0], b[1], b[2], b[3] = byte(d>>24), byte(d>>16), byte(d>>8), byte(d)
			h.Write(b[:])
		}
		h.Write([]byte{0xFF})
	}
	return h.Sum64()
}

// join connects the executor to a cluster, handshaking the run identity
// with every peer; from then on every Step combines its slab rows with the
// peers' (chain or exchange). db is the DropBack engine whose frozen
// tracked set narrows the exchange (nil for the SGD baseline). The worker count is not part of the handshake.
func (e *shardExecutor) join(db *core.DropBack, dcfg dist.Config, hs dist.Handshake) error {
	hs.ParamTotal = uint64(e.total)
	hs.ModelHash = modelHash(e.primary.Set)
	cluster, err := dist.Connect(dcfg, hs)
	if err != nil {
		return err
	}
	e.cluster, e.db = cluster, db
	e.rank, e.step = cluster.Rank(), hs.StartStep
	e.ranks = make([]shardRange, cluster.World())
	e.lastSent, e.lastRecv = cluster.BytesSent(), cluster.BytesReceived()
	return nil
}

// Err returns the sticky executor error. The trainer checks it immediately
// after every step and returns BEFORE the optimizer runs, so a failed
// exchange can never tear an update: the weights stay exactly where the last
// completed step left them.
func (e *shardExecutor) Err() error { return e.err }

// Close leaves the cluster, closing every peer connection.
func (e *shardExecutor) Close() error {
	if e.cluster == nil {
		return nil
	}
	return e.cluster.Close()
}

// fail records the first error, tells the peers why, and poisons the
// executor; every later Step is a no-op returning NaN (which the trainer
// never consumes, because it checks Err first).
func (e *shardExecutor) fail(err error) {
	if e.err != nil {
		return
	}
	e.err = err
	e.cluster.Abort(err.Error())
}

// Step runs one training step: a batched forward/backward per busy worker
// over its sub-batch of this rank's share, then deterministic reduction of
// the per-sample gradient slab rows into the primary's gradient buffers
// (down the rank chain, or after the frozen exchange, once joined), and
// the same loss/accuracy reduction arithmetic as the sequential path. On
// return the primary model holds exactly the gradients, dropout sample
// counts, loss, and accuracy that Model.Step would have produced on the
// full minibatch — on every rank, which is why each can then run the
// identical optimizer update with no further communication. After a frozen
// step that holds at the tracked indices, the only gradients read then.
func (e *shardExecutor) Step(x *tensor.Tensor, labels []int) (loss, acc float64) {
	if e.err != nil {
		return math.NaN(), 0
	}
	n := x.Shape[0]
	e.size(n)
	mine := shardRangesInto(e.ranks, n)[e.rank]
	ranges := shardRangesInto(e.ranges, mine.Hi-mine.Lo)
	for w := range ranges {
		ranges[w].Lo += mine.Lo
		ranges[w].Hi += mine.Lo
	}
	busy := mine.Lo < mine.Hi // worker 0 is busy whenever any worker is

	// Start each busy worker's dropout sample counts at its shard's first
	// global sample: the primary's count (samples before this step) plus
	// the shard's first row.
	var base map[string]uint64
	if e.hasRNG {
		base = nn.CaptureLayerRNG(e.primary.Net)
		for w, r := range ranges {
			if r.Lo < r.Hi {
				nn.RestoreLayerRNG(e.replicas[w].Net, base)
				nn.AdvanceDropoutSamples(e.replicas[w].Net, r.Lo)
			}
		}
	}

	timing := e.rec.Enabled()
	var wg sync.WaitGroup
	for w := 1; w < len(ranges); w++ {
		if ranges[w].Lo >= ranges[w].Hi {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.timeShard(timing, w, x, labels)
		}(w)
	}
	if busy {
		e.timeShard(timing, 0, x, labels)
	}
	wg.Wait()

	// Every rank, busy or idle, leaves the primary's counts where the
	// sequential pass would: past the whole batch. Checkpoints capture them.
	if e.hasRNG {
		nn.RestoreLayerRNG(e.primary.Net, base)
		nn.AdvanceDropoutSamples(e.primary.Net, n)
	}

	// Deterministic reduction and the sequential loss/accuracy arithmetic —
	// identical on every rank, so the optimizer updates stay in lockstep.
	// Every path zeroes the gradients and accumulates each slab element in
	// ascending sample order, the sequential backward pass's sequence. The
	// sequential path folds −log(p_s+ε) into a float64 ascending s and
	// divides once; perLoss holds each sample's −log term, so the loss sum
	// replays the identical float64 operation sequence.
	var (
		sum      float64
		correct  int
		foldWait time.Duration
		ok       = true
	)
	switch idx := e.activeIndices(); {
	case e.cluster == nil:
		e.primary.Set.ZeroGrads()
		sum, correct = e.foldRows(0, n, 0, 0)
	case idx == nil:
		sum, correct, foldWait, ok = e.chain(mine, n)
	default:
		if foldWait, ok = e.exchange(mine, idx); ok {
			sum, correct = e.foldTracked(idx, n)
		}
	}
	if !ok {
		return math.NaN(), 0
	}
	loss, acc = sum/float64(n), float64(correct)/float64(n)
	if timing {
		for w, r := range ranges {
			if r.Lo < r.Hi {
				e.rec.Counter(telemetry.CounterTrainShardSeconds, e.shardDur[w].Seconds())
			}
		}
		if e.cluster != nil {
			sent, recv := e.cluster.BytesSent(), e.cluster.BytesReceived()
			e.rec.Counter(telemetry.CounterDistBytesSent, float64(sent-e.lastSent))
			e.rec.Counter(telemetry.CounterDistBytesReceived, float64(recv-e.lastRecv))
			e.rec.Counter(telemetry.CounterDistFoldWaitSeconds, foldWait.Seconds())
			e.lastSent, e.lastRecv = sent, recv
		}
	}
	return loss, acc
}

// timeShard runs worker w's shard and, with timing set, records its
// duration for the per-shard telemetry.
func (e *shardExecutor) timeShard(timing bool, w int, x *tensor.Tensor, labels []int) {
	var start time.Time
	if timing {
		start = time.Now()
	}
	e.runShard(e.replicas[w], e.views[w], e.scratch[w], e.ranges[w], x, labels)
	if timing {
		e.shardDur[w] = time.Since(start)
	}
}

// activeIndices returns the tracked-index list when only tracked deltas
// should cross the wire (DropBack, frozen), or nil for a dense exchange.
// Pre-freeze the exchange must stay dense even under DropBack: every
// weight's gradient is its bid in the next top-k selection, so dropping
// untracked gradients would change which weights win.
func (e *shardExecutor) activeIndices() []int32 {
	if e.db == nil || !e.db.Frozen() {
		return nil
	}
	if !e.idxCached {
		e.trackedIdx = e.db.AppendTrackedIndices(e.trackedIdx[:0])
		e.idxCached = true
	}
	return e.trackedIdx
}

// chain reduces a dense step down the rank chain and returns the batch's
// loss sum and correct count. Rank 0 folds its rows [mine.Lo, mine.Hi) from
// zero; every later rank loads its predecessor's running sums into the
// gradient buffers and continues them with its own rows, in ascending
// sample order, then forwards them; the last rank sends the totals back to
// every other rank. Each rank owns a contiguous shard in rank order, so
// element j is still ((0 + row₀[j]) + row₁[j]) + … in ascending global
// sample order: the chain moves where the additions happen and never
// re-associates them, and the float64 loss sum continues the same way. A
// rank with no rows only forwards. Each hop carries one row of sums
// (PartialFrameBytes), not every sample's row. It returns the time spent
// waiting on the peers, or false after poisoning the executor on a failure.
func (e *shardExecutor) chain(mine shardRange, n int) (loss float64, correct int, wait time.Duration, ok bool) {
	last := len(e.ranks) - 1
	start := time.Now()
	if e.rank == 0 {
		e.primary.Set.ZeroGrads()
	} else if loss, correct, ok = e.recvSums(e.rank-1, mine.Lo); !ok {
		return 0, 0, 0, false
	}
	wait = time.Since(start)
	loss, correct = e.foldRows(mine.Lo, mine.Hi, loss, correct)
	e.encodeSums(mine.Hi, loss, correct)

	start = time.Now()
	if e.rank < last {
		if !e.send(e.rank + 1) {
			return 0, 0, 0, false
		}
		loss, correct, ok = e.recvSums(last, n)
	} else {
		ok = true
		for r := 0; r < last && ok; r++ {
			ok = e.send(r)
		}
	}
	if !ok {
		return 0, 0, 0, false
	}
	e.step++
	return loss, correct, wait + time.Since(start), true
}

// foldRows continues the running sums — the primary's gradient buffers, the
// float64 loss sum and the correct count — with slab rows [lo, hi) in
// ascending sample order.
func (e *shardExecutor) foldRows(lo, hi int, loss float64, correct int) (float64, int) {
	e.primary.Set.ReduceGradSlab(e.slab[lo*e.total:], hi-lo)
	for s := lo; s < hi; s++ {
		loss += e.perLoss[s]
		correct += int(e.perCorrect[s])
	}
	return loss, correct
}

// encodeSums builds the partial payload carrying the running sums over
// batch rows [0, rows) into sendBuf.
func (e *shardExecutor) encodeSums(rows int, loss float64, correct int) {
	buf := dist.AppendPartialHeader(e.sendBuf[:0], dist.PartialHeader{
		Rank: uint32(e.rank), Step: e.step, Rows: uint32(rows),
		Active: uint32(e.total), Loss: loss, Correct: uint32(correct),
	})
	for _, p := range e.primary.Set.Params() {
		buf = dist.AppendSampleValues(buf, p.Grad.Data, nil)
	}
	e.sendBuf = buf
}

// send writes sendBuf to rank `to`, poisoning the executor on failure.
func (e *shardExecutor) send(to int) bool {
	if err := e.cluster.Send(e.step, to, e.sendBuf); err != nil {
		e.fail(err)
		return false
	}
	return true
}

// recvSums receives rank from's running sums, which must cover exactly
// batch rows [0, rows), and loads them into the primary's gradient buffers.
func (e *shardExecutor) recvSums(from, rows int) (loss float64, correct int, ok bool) {
	sp, err := e.cluster.Recv(e.step, from)
	if err == nil && (int(sp.Hdr.Rows) != rows || int(sp.Hdr.Active) != e.total) {
		err = fmt.Errorf("%w: peer %d sent sums of %d values over rows [0, %d), expected %d values over [0, %d)",
			dist.ErrShardMismatch, from, sp.Hdr.Active, sp.Hdr.Rows, e.total, rows)
	}
	if err != nil {
		e.fail(err)
		return 0, 0, false
	}
	set := e.primary.Set
	for i, p := range set.Params() {
		sp.CopyValues(p.Grad.Data, set.Offset(i))
	}
	return sp.Hdr.Loss, int(sp.Hdr.Correct), true
}

// exchange runs a frozen step's all-to-all: it sends this rank's rows
// [mine.Lo, mine.Hi), carrying only the values at the ascending tracked
// indices idx, to every peer and scatters theirs into the slab and
// per-sample buffers — O(k) frames, no index side-band, because every rank
// derives the identical tracked-index list from its own constraint state.
// Untracked entries of remote rows then hold stale slab bytes, which
// foldTracked never reads. It returns the time spent waiting on the peers,
// or false after poisoning the executor on a failure.
func (e *shardExecutor) exchange(mine shardRange, idx []int32) (wait time.Duration, ok bool) {
	active := len(idx)
	buf := dist.AppendStepHeader(e.sendBuf[:0], dist.StepHeader{
		Rank: uint32(e.rank), Step: e.step,
		Lo: uint32(mine.Lo), Hi: uint32(mine.Hi), Active: uint32(active),
	})
	for s := mine.Lo; s < mine.Hi; s++ {
		buf = dist.AppendSample(buf, e.perLoss[s], e.perCorrect[s])
	}
	for s := mine.Lo; s < mine.Hi; s++ {
		buf = dist.AppendSampleValues(buf, e.slab[s*e.total:(s+1)*e.total], idx)
	}
	e.sendBuf = buf

	start := time.Now()
	replies, err := e.cluster.Exchange(e.step, buf)
	if err != nil {
		e.fail(err)
		return 0, false
	}
	wait = time.Since(start)
	e.step++
	// Iteration order does not matter for bit-identity — rows are
	// sample-disjoint; only the reduction's ascending sample order does.
	for s, want := range e.ranks {
		if s == e.rank {
			continue
		}
		sp, err := dist.ParseStep(replies[s])
		if err != nil {
			e.fail(err)
			return 0, false
		}
		if int(sp.Hdr.Lo) != want.Lo || int(sp.Hdr.Hi) != want.Hi {
			e.fail(fmt.Errorf("%w: peer %d computed rows [%d, %d), local partition says [%d, %d)",
				dist.ErrShardMismatch, s, sp.Hdr.Lo, sp.Hdr.Hi, want.Lo, want.Hi))
			return 0, false
		}
		if int(sp.Hdr.Active) != active {
			e.fail(fmt.Errorf("%w: peer %d sent %d values per row, expected %d — tracked sets diverged",
				dist.ErrShardMismatch, s, sp.Hdr.Active, active))
			return 0, false
		}
		for i := 0; i < sp.Samples(); i++ {
			g := int(sp.Hdr.Lo) + i
			e.perLoss[g], e.perCorrect[g] = sp.Sample(i)
			sp.CopyValues(i, e.slab[g*e.total:(g+1)*e.total], idx)
		}
	}
	return wait, true
}

// recordEpochTelemetry exports the per-peer byte counters and world gauge
// at an epoch boundary; in-process it records nothing.
func (e *shardExecutor) recordEpochTelemetry() {
	if e.cluster == nil || !e.rec.Enabled() {
		return
	}
	e.rec.Gauge(telemetry.GaugeDistWorld, float64(len(e.ranks)))
	for r := range e.ranks {
		if r == e.rank {
			continue
		}
		sent, recv := e.cluster.PeerBytes(r)
		e.rec.Gauge(telemetry.DistPeerCounter(r, "sent"), float64(sent))
		e.rec.Gauge(telemetry.DistPeerCounter(r, "received"), float64(recv))
	}
}

// size grows the buffers to an n-sample batch and trims the per-sample
// rows to exactly n.
func (e *shardExecutor) size(n int) {
	if need := n * e.total; cap(e.slab) < need {
		e.slab = make([]float32, need)
	}
	if cap(e.perLoss) < n {
		e.perLoss = make([]float64, n)
		e.perCorrect = make([]uint8, n)
	}
	e.perLoss, e.perCorrect = e.perLoss[:n], e.perCorrect[:n]
}

// runShard processes rows [r.Lo, r.Hi) on model m as ONE batched
// forward/backward: the sub-batch is a zero-copy view of the input rows
// (built in view), the loss head reuses the workspace sc, and the backward
// pass emits each sample's parameter-gradient partials into its global slab
// row (ParamSet.BindSampleSlab). Emission fully overwrites every (sample,
// parameter) slab segment, so rows are not cleared first. Shards of one
// batch may run concurrently: each writes only its own rows.
func (e *shardExecutor) runShard(m *Model, view *tensor.Tensor, sc *tensor.Workspace, r shardRange, x *tensor.Tensor, labels []int) {
	sub := r.Hi - r.Lo
	xs := tensor.ViewRowsInto(view, x, r.Lo, r.Hi)
	m.Set.BindSampleSlab(e.slab, r.Lo)
	defer m.Set.UnbindSampleSlab()
	logits := m.Net.Forward(xs, true)
	classes := logits.Shape[1]
	probs := tensor.SoftmaxRowsInto(sc.GetRaw("probs", sub, classes), logits)
	dlogits := sc.GetRaw("dlogits", sub, classes)
	// The global batch size is the denominator, so each row's dlogits and
	// −log term are bit-identical to the full-batch pass's row.
	tensor.CrossEntropyFromProbsDenomInto(dlogits, e.perLoss[r.Lo:r.Hi], probs, labels[r.Lo:r.Hi], len(e.perLoss))
	for i := 0; i < sub; i++ {
		row := logits.Data[i*classes : (i+1)*classes]
		best := 0
		for j := 1; j < classes; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if best == labels[r.Lo+i] {
			e.perCorrect[r.Lo+i] = 1
		} else {
			e.perCorrect[r.Lo+i] = 0
		}
	}
	m.Net.Backward(dlogits)
}

// foldTracked reduces a frozen step's complete n-row slab at the ascending
// tracked indices idx only, each in ascending sample order from zero — the
// sequential pass's sequence for every gradient the frozen constraint
// reads — and returns the batch's loss sum and correct count. Every other
// gradient is left at zero rather than summed from the stale bytes that
// remote rows hold there. That is sound because the frozen DropBack update
// steps only the tracked entries and Validate rejects Dist with GradHook,
// so nothing reads an untracked gradient.
func (e *shardExecutor) foldTracked(idx []int32, n int) (loss float64, correct int) {
	set := e.primary.Set
	set.ZeroGrads()
	lo := 0
	for i, p := range set.Params() {
		g, off := p.Grad.Data, set.Offset(i)
		hi := lo
		for hi < len(idx) && int(idx[hi]) < off+len(g) {
			hi++
		}
		for s := 0; s < n; s++ {
			row := e.slab[s*e.total : (s+1)*e.total]
			for _, j := range idx[lo:hi] {
				g[int(j)-off] += row[j]
			}
		}
		lo = hi
	}
	for s := 0; s < n; s++ {
		loss += e.perLoss[s]
		correct += int(e.perCorrect[s])
	}
	return loss, correct
}

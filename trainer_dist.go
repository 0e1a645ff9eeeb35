package dropback

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"dropback/internal/core"
	"dropback/internal/dist"
	"dropback/internal/nn"
	"dropback/internal/telemetry"
	"dropback/internal/tensor"
)

// distExecutor runs one training step's forward/backward across the nodes of
// a dist.Cluster, bit-identically to the sequential Model.Step on every
// node. Each node computes ONE batched forward/backward over its contiguous
// shard of the minibatch — exactly the batched shard kernels the in-process
// parallelExecutor uses, emitting per-sample gradient rows into the global
// slab — then exchanges those rows with every peer and reduces the complete
// slab in ascending sample order, replaying the sequential accumulation's
// float sequence exactly (DESIGN.md §8's argument, now across processes;
// §12 covers the wire).
//
// What crosses the wire is per-SAMPLE gradient rows, never pre-reduced
// partial sums: float addition is not associative, so only shipping the raw
// rows and folding them in the same fixed order on every node preserves
// bit-identity. Before DropBack freezes the full rows go (every weight's
// gradient is its bid to enter the tracked set); after freeze only the k
// tracked values per row cross — O(k) frames, no index side-band, because
// every node derives the identical ascending tracked-index list from its own
// constraint state. Untracked entries of remote rows then hold stale slab
// bytes, which is sound: the frozen constraint never recomputes scores, and
// regeneration overwrites every untracked weight right after the optimizer
// step, so no observable state (params, masks, swap history, checkpoints)
// can depend on them.
type distExecutor struct {
	shardBuffers
	m       *Model
	db      *core.DropBack // nil for the SGD baseline
	cluster *dist.Cluster
	rank    int
	world   int
	step    uint64

	ranges  []shardRange
	view    *tensor.Tensor
	scratch *tensor.Workspace
	sendBuf []byte

	hasRNG bool
	// carrySkip counts dropout samples owed from steps where this node's
	// shard was empty (world > batch) and no forward ran to consume a skip.
	carrySkip int

	// trackedIdx caches the ascending tracked-index list once DropBack
	// freezes (the set never changes afterwards).
	trackedIdx []int32
	idxCached  bool

	rec      telemetry.Recorder
	lastSent int64
	lastRecv int64

	err error // sticky: the first exchange failure poisons the executor
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

// newDistExecutor validates the model for shard-parallel training and joins
// the cluster, handshaking the run identity with every peer.
func newDistExecutor(m *Model, db *core.DropBack, dcfg dist.Config, hs dist.Handshake, rec telemetry.Recorder) (*distExecutor, error) {
	if err := nn.CheckShardable(m.Net); err != nil {
		return nil, fmt.Errorf("dropback: model is not shard-parallel safe: %w", err)
	}
	hs.ParamTotal = uint64(m.Set.Total())
	hs.ModelHash = modelHash(m.Set)
	cluster, err := dist.Connect(dcfg, hs)
	if err != nil {
		return nil, err
	}
	e := &distExecutor{
		shardBuffers: shardBuffers{total: m.Set.Total()},
		m:            m,
		db:           db,
		cluster:      cluster,
		rank:         cluster.Rank(),
		world:        cluster.World(),
		step:         hs.StartStep,
		ranges:       make([]shardRange, cluster.World()),
		view:         &tensor.Tensor{},
		scratch:      tensor.NewWorkspace(),
		hasRNG:       len(nn.CaptureLayerRNG(m.Net)) > 0,
		rec:          telemetry.OrNop(rec),
	}
	e.lastSent = cluster.BytesSent()
	e.lastRecv = cluster.BytesReceived()
	return e, nil
}

// Err returns the sticky executor error. The trainer checks it immediately
// after every step and returns BEFORE the optimizer runs, so a failed
// exchange can never tear an update: the weights stay exactly where the last
// completed step left them.
func (e *distExecutor) Err() error { return e.err }

// Close leaves the cluster, closing every peer connection.
func (e *distExecutor) Close() error { return e.cluster.Close() }

// fail records the first error, tells the peers why, and poisons the
// executor; every later Step is a no-op returning NaN (which the trainer
// never consumes, because it checks Err first).
func (e *distExecutor) fail(err error) {
	if e.err != nil {
		return
	}
	e.err = err
	e.cluster.Abort(err.Error())
}

// activeIndices returns the tracked-index list when only tracked deltas
// should cross the wire (DropBack, frozen), or nil for a dense exchange.
// Pre-freeze the exchange must stay dense even under DropBack: every
// weight's gradient is its bid in the next top-k selection, so dropping
// untracked gradients would change which weights win.
func (e *distExecutor) activeIndices() []int32 {
	if e.db == nil || !e.db.Frozen() {
		return nil
	}
	if !e.idxCached {
		e.trackedIdx = e.db.AppendTrackedIndices(e.trackedIdx[:0])
		e.idxCached = true
	}
	return e.trackedIdx
}

// Step runs one multi-node training step. On return the local model holds
// exactly the gradients, dropout-stream positions, loss, and accuracy the
// sequential Model.Step would have produced on the full minibatch — on every
// node, which is why each node can then run the identical optimizer update
// with no further communication.
func (e *distExecutor) Step(x *tensor.Tensor, labels []int) (loss, acc float64) {
	if e.err != nil {
		return math.NaN(), 0
	}
	n := x.Shape[0]
	e.size(n)
	ranges := shardRangesInto(e.ranges, n)
	r := ranges[e.rank]

	// Position the dropout streams: skip the preceding shards' draws before
	// our forward, and advance past the following shards' right after it, so
	// the streams end each step exactly where the sequential pass's would —
	// materialized into RNG state, because checkpoints capture that state.
	if e.hasRNG && r.Lo < r.Hi {
		if skip := e.carrySkip + r.Lo; skip > 0 {
			nn.ArmDropoutSkip(e.m.Net, skip)
		}
		e.carrySkip = 0
	} else if e.hasRNG {
		e.carrySkip += n
	}
	if r.Lo < r.Hi {
		e.runShard(e.m, e.view, e.scratch, r, x, labels)
		if e.hasRNG && n-r.Hi > 0 {
			nn.AdvanceDropoutSamples(e.m.Net, n-r.Hi)
		}
	}

	idx := e.activeIndices()
	active := e.total
	if idx != nil {
		active = len(idx)
	}

	buf := dist.AppendStepHeader(e.sendBuf[:0], dist.StepHeader{
		Rank: uint32(e.rank), Step: e.step,
		Lo: uint32(r.Lo), Hi: uint32(r.Hi), Active: uint32(active),
	})
	for s := r.Lo; s < r.Hi; s++ {
		buf = dist.AppendSample(buf, e.perLoss[s], e.perCorrect[s])
	}
	for s := r.Lo; s < r.Hi; s++ {
		buf = dist.AppendSampleValues(buf, e.slab[s*e.total:(s+1)*e.total], idx)
	}
	e.sendBuf = buf

	foldStart := time.Now()
	replies, err := e.cluster.Exchange(e.step, buf)
	if err != nil {
		e.fail(err)
		return math.NaN(), 0
	}
	foldWait := time.Since(foldStart)

	// Scatter every peer's rows. Iteration order does not matter for
	// bit-identity — rows are sample-disjoint; only the reduction's
	// ascending sample order does.
	for s := 0; s < e.world; s++ {
		if s == e.rank {
			continue
		}
		sp, err := dist.ParseStep(replies[s])
		if err != nil {
			e.fail(err)
			return math.NaN(), 0
		}
		if int(sp.Hdr.Lo) != ranges[s].Lo || int(sp.Hdr.Hi) != ranges[s].Hi {
			e.fail(fmt.Errorf("%w: peer %d computed rows [%d, %d), local partition says [%d, %d)",
				dist.ErrShardMismatch, s, sp.Hdr.Lo, sp.Hdr.Hi, ranges[s].Lo, ranges[s].Hi))
			return math.NaN(), 0
		}
		if int(sp.Hdr.Active) != active {
			e.fail(fmt.Errorf("%w: peer %d sent %d values per row, expected %d — tracked sets diverged",
				dist.ErrShardMismatch, s, sp.Hdr.Active, active))
			return math.NaN(), 0
		}
		for i := 0; i < sp.Samples(); i++ {
			g := int(sp.Hdr.Lo) + i
			e.perLoss[g], e.perCorrect[g] = sp.Sample(i)
			sp.CopyValues(i, e.slab[g*e.total:(g+1)*e.total], idx)
		}
	}

	// Deterministic reduction and the sequential loss/accuracy arithmetic —
	// identical on every node, so the optimizer updates stay in lockstep.
	loss, acc = e.fold(e.m.Set)

	e.step++
	if e.rec.Enabled() {
		sent, recv := e.cluster.BytesSent(), e.cluster.BytesReceived()
		e.rec.Counter(telemetry.CounterDistBytesSent, float64(sent-e.lastSent))
		e.rec.Counter(telemetry.CounterDistBytesReceived, float64(recv-e.lastRecv))
		e.rec.Counter(telemetry.CounterDistFoldWaitSeconds, foldWait.Seconds())
		e.lastSent, e.lastRecv = sent, recv
	}
	return loss, acc
}

// recordEpochTelemetry exports the per-peer byte counters and world gauge at
// an epoch boundary.
func (e *distExecutor) recordEpochTelemetry() {
	if !e.rec.Enabled() {
		return
	}
	e.rec.Gauge(telemetry.GaugeDistWorld, float64(e.world))
	for r := 0; r < e.world; r++ {
		if r == e.rank {
			continue
		}
		sent, recv := e.cluster.PeerBytes(r)
		e.rec.Gauge(telemetry.DistPeerCounter(r, "sent"), float64(sent))
		e.rec.Gauge(telemetry.DistPeerCounter(r, "received"), float64(recv))
	}
}

// Package serve is the inference serving subsystem: it turns a trained
// model (typically reconstructed from a sparse deployment artifact) into a
// concurrent prediction service.
//
// The design leans on the paper's deployment contract. A DropBack artifact
// stores only the tracked weights plus the model seed; every untracked
// weight is regenerated from (seed, tensor id, element index). Because
// reconstruction is pure computation over a tiny file, instantiating one
// more model replica costs a few milliseconds of xorshift regeneration and
// no additional artifact I/O — so horizontal replication inside a process
// is nearly free, and the replica pool is the natural unit of concurrency.
//
// It has to be, because a *nn.Model is NOT safe for concurrent Forward
// calls: layers own mutable workspaces and caches (im2col buffers, argmax
// records, dropout masks) that are overwritten on every pass. The pool
// guarantees each replica runs at most one batch at a time; concurrency
// comes from running different replicas in parallel.
//
// Request flow:
//
//	Predict -> tiered admission -> per-tier queues -> micro-batcher
//	        -> version router (stable/canary) -> replica pool -> response
//
// The micro-batcher coalesces concurrent requests into one forward pass, up
// to Config.MaxBatch requests or Config.MaxWait of waiting, whichever comes
// first, always draining higher-priority tiers first. Each tier has its own
// bounded queue; admission sheds the lowest tiers preemptively as total
// occupancy grows (see tier.go), so overload degrades best-effort traffic
// before it can touch interactive latency. Close drains queued work, waits
// for in-flight batches, and then refuses new requests with ErrDraining.
//
// Versioning (version.go): the server serves one stable version — an
// immutable (pool, identity, health counters) triple behind an
// atomic.Pointer — and optionally one canary version receiving a
// deterministic hash-routed share of traffic. Reload compiles a new
// artifact off the request path, verifies it, and either swaps it in with a
// single pointer store or canaries it with automatic rollback/promotion.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dropback/internal/telemetry"
	"dropback/internal/tensor"
)

// Telemetry names the serving layer reports through a telemetry.Recorder.
const (
	// CounterRequests counts requests accepted into the queue.
	CounterRequests = "serve/requests"
	// CounterRejected counts requests rejected with ErrOverloaded.
	CounterRejected = "serve/rejected"
	// CounterExpired counts requests whose context ended before a result.
	CounterExpired = "serve/expired"
	// CounterBatches counts forward passes (one per coalesced batch).
	CounterBatches = "serve/batches"
	// CounterPanics counts recovered inference panics.
	CounterPanics = "serve/panics"
	// CounterReloads counts verified hot reloads (swap or canary start).
	CounterReloads = "serve/reloads"
	// CounterRollbacks counts automatic canary rollbacks.
	CounterRollbacks = "serve/rollbacks"
	// CounterPromotions counts automatic canary promotions to stable.
	CounterPromotions = "serve/promotions"
	// CounterShedPrefix + Tier.String() counts per-tier admission sheds.
	CounterShedPrefix = "serve/shed/"
	// GaugeQueueDepth is the total queue occupancy sampled at each enqueue.
	GaugeQueueDepth = "serve/queue_depth"
	// GaugeBatchSize is the size of the most recent batch.
	GaugeBatchSize = "serve/batch_size"
	// GaugeCanaryPercent is the share of traffic routed to the canary.
	GaugeCanaryPercent = "serve/canary_percent"
	// GaugePoolBuildSeconds is the wall time spent building the replica pool
	// at startup (replicas build concurrently, so this tracks the slowest
	// single build).
	GaugePoolBuildSeconds = "serve/pool_build_seconds"
)

// Sentinel errors the serving layer maps to HTTP statuses.
var (
	// ErrOverloaded reports a shed request (backpressure; retry later).
	ErrOverloaded = errors.New("serve: queue full, server overloaded")
	// ErrDraining reports a server that is shutting down.
	ErrDraining = errors.New("serve: server is draining")
	// ErrBadInput reports a malformed or wrongly sized input vector.
	ErrBadInput = errors.New("serve: bad input")
	// ErrNonFinite reports a finite input whose forward pass overflowed to
	// NaN or infinite probabilities.
	ErrNonFinite = errors.New("serve: input overflowed to non-finite probabilities")
)

// Config configures a Server.
type Config struct {
	// NewSparseReplica constructs one replica of any kind; it is required.
	// It is called Replicas times at startup, and every replica it returns
	// must compute the same outputs. Typically it returns a
	// sparse.Executor over a shared compiled plan (a replica of the plan's
	// model: all weight state shared, only activation scratch per replica),
	// or a ModelReplica around a dense model built with the same
	// constructor and seed and the deployment artifact applied.
	NewSparseReplica func() (Replica, error)
	// Compile turns raw artifact bytes into a replica constructor for a new
	// serving version — the hot-reload seam. It runs off the request path;
	// errors reject the reload and leave the serving version untouched. Nil
	// disables Reload (and POST /v1/reload answers 501).
	Compile func(artifact io.Reader) (func() (Replica, error), error)
	// InputShape is the per-sample input shape, e.g. [784] for the MLPs or
	// [3, 12, 12] for the reduced convolutional models. Batches are formed
	// as [n, InputShape...].
	InputShape []int
	// Replicas is the model pool size (default 4). It bounds the number of
	// concurrent forward passes.
	Replicas int
	// MaxBatch caps how many requests one forward pass serves (default 8).
	MaxBatch int
	// MaxWait caps how long the batcher holds the first request of a batch
	// while waiting for more to coalesce (default 1ms). Negative disables
	// waiting: a batch is whatever is already queued.
	MaxWait time.Duration
	// QueueDepth bounds each tier's request queue (default 16×MaxBatch). A
	// full tier queue rejects with ErrOverloaded.
	QueueDepth int
	// Telemetry optionally receives serve counters, gauges, and a per-request
	// end-to-end latency sample stream (via Recorder.StepDone, which feeds
	// the collector's latency quantiles). Nil disables recording.
	Telemetry telemetry.Recorder
}

// withDefaults validates cfg and fills unset fields.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.NewSparseReplica == nil {
		return cfg, errors.New("serve: Config.NewSparseReplica is required")
	}
	if len(cfg.InputShape) == 0 {
		return cfg, errors.New("serve: Config.InputShape is required")
	}
	for _, d := range cfg.InputShape {
		if d <= 0 {
			return cfg, fmt.Errorf("serve: non-positive dimension in input shape %v", cfg.InputShape)
		}
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 4
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxWait < 0 {
		cfg.MaxWait = 0
	} else if cfg.MaxWait == 0 {
		cfg.MaxWait = time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16 * cfg.MaxBatch
	}
	return cfg, nil
}

// Prediction is one request's result.
type Prediction struct {
	// Class is the argmax class index.
	Class int `json:"class"`
	// Probs is the softmax distribution over classes.
	Probs []float32 `json:"probs"`
	// BatchSize is the size of the coalesced batch that served the request
	// (observability: how well micro-batching is working).
	BatchSize int `json:"batch_size"`
	// Version identifies the serving version (stable or canary) that
	// computed this prediction.
	Version string `json:"version"`
}

// request is one in-flight prediction.
type request struct {
	ctx   context.Context
	input []float32
	tier  Tier
	hash  uint64 // deterministic canary routing hash of the input
	enq   time.Time
	// done is buffered (capacity 1) so batch workers never block on a caller
	// that gave up.
	done chan result
}

type result struct {
	pred Prediction
	err  error
}

// Server owns the versioned replica pools and the tiered micro-batching
// pipeline.
type Server struct {
	cfg       Config
	rec       telemetry.Recorder
	poolBuild time.Duration
	inputLen  int

	// Versioned serving state: stable is never nil after New; canaryV is
	// non-nil only while a canary is being evaluated. canaryPct is the
	// percent of traffic hash-routed to the canary.
	stable    atomic.Pointer[version]
	canaryV   atomic.Pointer[version]
	canaryPct atomic.Int64
	verSeq    atomic.Int64
	reloadMu  sync.Mutex // serializes Reload / rollback / promotion
	drains    sync.WaitGroup

	queues [NumTiers]chan *request
	stop   chan struct{}
	// batchDone closes when the batch loop has exited (queues drained).
	batchDone chan struct{}
	inflight  sync.WaitGroup

	// mu serializes enqueue against drain: Close sets draining under the
	// write lock, so no Predict can slip a request into a queue after the
	// drain pass has started.
	mu       sync.RWMutex
	draining bool

	requests atomic.Uint64
	rejected atomic.Uint64
	expired  atomic.Uint64
	panics   atomic.Uint64

	reloads    atomic.Uint64
	rollbacks  atomic.Uint64
	promotions atomic.Uint64

	tierRequests [NumTiers]atomic.Uint64
	tierShed     [NumTiers]atomic.Uint64
	tierExpired  [NumTiers]atomic.Uint64

	// Drain-rate tracking for Retry-After: an EWMA of completed requests
	// per second, updated at each batch completion.
	drainMu   sync.Mutex
	lastBatch time.Time
	drainRate float64 // requests per second

	statsMu      sync.Mutex
	latency      telemetry.Histogram
	tierLat      [NumTiers]telemetry.Histogram
	batches      uint64
	batchSum     uint64
	batchMax     int
	batchDist    []uint64 // batchDist[n-1] counts batches of size n
	lastRollback string
}

// New builds the replica pool for the boot version and starts the
// micro-batcher.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	pool, err := NewPool(cfg.Replicas, cfg.NewSparseReplica)
	if err != nil {
		return nil, err
	}
	poolBuild := time.Since(buildStart)
	inputLen := 1
	for _, d := range cfg.InputShape {
		inputLen *= d
	}
	s := &Server{
		cfg:       cfg,
		rec:       telemetry.OrNop(cfg.Telemetry),
		poolBuild: poolBuild,
		inputLen:  inputLen,
		stop:      make(chan struct{}),
		batchDone: make(chan struct{}),
		batchDist: make([]uint64, cfg.MaxBatch),
	}
	for t := range s.queues {
		s.queues[t] = make(chan *request, cfg.QueueDepth)
	}
	// The boot version is not probe-verified (its replica constructor is
	// trusted startup configuration, and probing here would change startup
	// behavior for replicas that block); its output width is learned from
	// the first served batch, after which reloads are shape-checked.
	s.verSeq.Store(1)
	s.stable.Store(newVersion("v1", 1, 0, pool, 0))
	s.rec.Gauge(GaugePoolBuildSeconds, poolBuild.Seconds())
	go s.batchLoop()
	return s, nil
}

// InputLen returns the expected per-sample input length (product of
// Config.InputShape).
func (s *Server) InputLen() int { return s.inputLen }

// Replicas returns the stable pool size.
func (s *Server) Replicas() int { return s.stable.Load().pool.Size() }

// Ready reports whether the server accepts new requests (true until Close).
func (s *Server) Ready() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.draining
}

// queuedTotal returns the total occupancy across every tier queue.
func (s *Server) queuedTotal() int {
	n := 0
	for t := range s.queues {
		n += len(s.queues[t])
	}
	return n
}

// occupancy returns queuedTotal as a fraction of total queue capacity.
func (s *Server) occupancy() float64 {
	return float64(s.queuedTotal()) / float64(NumTiers*s.cfg.QueueDepth)
}

// Predict queues one input vector at interactive priority. See PredictTier.
func (s *Server) Predict(ctx context.Context, input []float32) (Prediction, error) {
	return s.PredictTier(ctx, input, TierInteractive)
}

// PredictTier queues one input vector at the given priority tier for batched
// inference and waits for its result. It fails fast with ErrOverloaded when
// the tier is shed (its queue is full, or total occupancy has crossed the
// tier's admission threshold) and with ErrDraining during shutdown; a
// context that ends first returns ctx.Err() (the computation may still
// happen, but the result is discarded). A result whose probabilities are
// not finite returns ErrNonFinite.
func (s *Server) PredictTier(ctx context.Context, input []float32, tier Tier) (Prediction, error) {
	if len(input) != s.inputLen {
		return Prediction{}, fmt.Errorf("%w: got %d values, model expects %d", ErrBadInput, len(input), s.inputLen)
	}
	if int(tier) >= NumTiers {
		return Prediction{}, fmt.Errorf("%w: invalid tier %d", ErrBadInput, tier)
	}
	r := &request{ctx: ctx, input: input, tier: tier, hash: hashInput(input), enq: time.Now(), done: make(chan result, 1)}

	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return Prediction{}, ErrDraining
	}
	if s.occupancy() >= tierShedAt[tier] {
		s.mu.RUnlock()
		return Prediction{}, s.shed(tier)
	}
	select {
	case s.queues[tier] <- r:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		return Prediction{}, s.shed(tier)
	}
	s.requests.Add(1)
	s.tierRequests[tier].Add(1)
	s.rec.Counter(CounterRequests, 1)
	s.rec.Gauge(GaugeQueueDepth, float64(s.queuedTotal()))

	select {
	case res := <-r.done:
		if res.err == nil {
			e2e := time.Since(r.enq)
			s.statsMu.Lock()
			s.latency.Observe(e2e)
			s.tierLat[tier].Observe(e2e)
			s.statsMu.Unlock()
			s.rec.StepDone(telemetry.StepSample{Examples: 1, Latency: e2e})
		}
		// The model served the request, so its latency counts; but a
		// finite input can still overflow to NaN or infinite outputs,
		// which no client can use.
		if res.err == nil && !finite(res.pred.Probs) {
			return Prediction{}, ErrNonFinite
		}
		return res.pred, res.err
	case <-ctx.Done():
		s.expired.Add(1)
		s.tierExpired[tier].Add(1)
		s.rec.Counter(CounterExpired, 1)
		return Prediction{}, ctx.Err()
	}
}

// shed records one admission rejection for the tier.
func (s *Server) shed(tier Tier) error {
	s.rejected.Add(1)
	s.tierShed[tier].Add(1)
	s.rec.Counter(CounterRejected, 1)
	s.rec.Counter(CounterShedPrefix+tier.String(), 1)
	return ErrOverloaded
}

// takeReady dequeues the highest-priority request available without
// blocking.
func (s *Server) takeReady() *request {
	for t := 0; t < NumTiers; t++ {
		select {
		case r := <-s.queues[t]:
			return r
		default:
		}
	}
	return nil
}

// batchLoop is the micro-batcher: it blocks for the first request, coalesces
// more until the batch is full or MaxWait elapses — always preferring higher
// tiers — then hands the batch to the version router. Dispatch happens on a
// worker goroutine, so while one batch computes the loop is already
// collecting the next one.
func (s *Server) batchLoop() {
	defer close(s.batchDone)
	for {
		first := s.takeReady()
		if first == nil {
			select {
			case first = <-s.queues[TierInteractive]:
			case first = <-s.queues[TierBatch]:
			case first = <-s.queues[TierBestEffort]:
			case <-s.stop:
				s.drainQueues()
				return
			}
		}
		batch := make([]*request, 1, s.cfg.MaxBatch)
		batch[0] = first
		if s.cfg.MaxWait > 0 && s.cfg.MaxBatch > 1 {
			timer := time.NewTimer(s.cfg.MaxWait)
		collect:
			for len(batch) < s.cfg.MaxBatch {
				if r := s.takeReady(); r != nil {
					batch = append(batch, r)
					continue
				}
				select {
				case r := <-s.queues[TierInteractive]:
					batch = append(batch, r)
				case r := <-s.queues[TierBatch]:
					batch = append(batch, r)
				case r := <-s.queues[TierBestEffort]:
					batch = append(batch, r)
				case <-timer.C:
					break collect
				case <-s.stop:
					break collect
				}
			}
			timer.Stop()
		} else {
			for len(batch) < s.cfg.MaxBatch {
				r := s.takeReady()
				if r == nil {
					break
				}
				batch = append(batch, r)
			}
		}
		s.dispatchBatch(batch)
	}
}

// drainQueues flushes every request still queued at shutdown into final
// batches, so accepted work is answered rather than abandoned.
func (s *Server) drainQueues() {
	for {
		batch := make([]*request, 0, s.cfg.MaxBatch)
		for len(batch) < s.cfg.MaxBatch {
			r := s.takeReady()
			if r == nil {
				break
			}
			batch = append(batch, r)
		}
		if len(batch) == 0 {
			return
		}
		s.dispatchBatch(batch)
	}
}

// dispatchBatch routes a collected batch across the live versions: with no
// canary the whole batch goes to stable; with one, requests whose input hash
// lands inside the canary percent split off into a canary sub-batch.
func (s *Server) dispatchBatch(batch []*request) {
	pct := s.canaryPct.Load()
	if pct > 0 && s.canaryV.Load() != nil {
		var canBatch []*request
		stBatch := batch[:0]
		for _, r := range batch {
			if int64(r.hash%100) < pct {
				canBatch = append(canBatch, r)
			} else {
				stBatch = append(stBatch, r)
			}
		}
		if len(canBatch) > 0 {
			if c := s.pinCanary(); c != nil {
				s.dispatch(c, canBatch, true)
			} else {
				// The canary was promoted or rolled back between the
				// percent check and the pin: its share falls back to
				// stable, losing nothing.
				stBatch = append(stBatch, canBatch...)
			}
		}
		if len(stBatch) > 0 {
			s.dispatch(s.pinStable(), stBatch, false)
		}
		return
	}
	s.dispatch(s.pinStable(), batch, false)
}

// dispatch runs one batch on a free replica of v. Acquisition blocks the
// batcher (its backpressure), but gives up as soon as every caller in the
// batch has abandoned its request — a dead batch must not pin a replica slot
// or stall the batcher past its callers' deadlines.
func (s *Server) dispatch(v *version, batch []*request, canary bool) {
	ctx, cancel := liveContext(batch)
	rep, err := v.pool.AcquireCtx(ctx)
	cancel()
	if err != nil {
		s.unpin(v) // every caller has gone; their contexts already answered
		return
	}
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		defer s.unpin(v)
		defer v.pool.Release(rep)
		s.runBatch(v, rep, batch, canary)
	}()
}

// liveContext returns a context that is cancelled once every request in the
// batch has been abandoned by its caller. Batches holding at least one
// non-cancellable request (context.Background) never cancel, which keeps the
// benchmark hot path free of watcher goroutines.
func liveContext(batch []*request) (context.Context, context.CancelFunc) {
	n := 0
	for _, r := range batch {
		if r.ctx == nil || r.ctx.Done() == nil {
			return context.Background(), func() {}
		}
		n++
	}
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(n))
	for _, r := range batch {
		go func(done <-chan struct{}) {
			select {
			case <-done:
				if remaining.Add(-1) == 0 {
					cancel()
				}
			case <-ctx.Done():
			}
		}(r.ctx.Done())
	}
	return ctx, cancel
}

// runBatch executes one coalesced forward pass on version v and fans results
// back out, recording per-version health for canary evaluation.
func (s *Server) runBatch(v *version, rep Replica, batch []*request, canary bool) {
	// Skip requests whose caller has already gone away (timeout/cancel):
	// they have received ctx.Err() and nobody reads their done channel.
	live := batch[:0:0]
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	// Panic safety: a corrupt artifact or a bug in a layer must fail the
	// batch, not the process, and must not leak the replica (Release is
	// deferred by dispatch). Callers get a plain error.
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			v.failed.Add(uint64(len(live)))
			s.rec.Counter(CounterPanics, 1)
			err := fmt.Errorf("serve: inference panic on %s: %v", v.id, p)
			for _, r := range live {
				r.done <- result{err: err}
			}
			if canary {
				s.maybeSettleCanary(v)
			}
		}
	}()

	shape := make([]int, 0, len(s.cfg.InputShape)+1)
	shape = append(shape, len(live))
	shape = append(shape, s.cfg.InputShape...)
	x := tensor.New(shape...)
	for i, r := range live {
		copy(x.Data[i*s.inputLen:(i+1)*s.inputLen], r.input)
	}
	logits := rep.Infer(x)
	probs := tensor.SoftmaxRows(logits)

	n := len(live)
	now := time.Now()
	s.statsMu.Lock()
	s.batches++
	s.batchSum += uint64(n)
	if n > s.batchMax {
		s.batchMax = n
	}
	if n-1 < len(s.batchDist) {
		s.batchDist[n-1]++
	}
	s.statsMu.Unlock()
	s.observeDrain(n, now)
	s.rec.Counter(CounterBatches, 1)
	s.rec.Gauge(GaugeBatchSize, float64(n))

	classes := probs.Shape[1]
	v.classes.CompareAndSwap(0, int64(classes))
	for i, r := range live {
		p := make([]float32, classes)
		copy(p, probs.Data[i*classes:(i+1)*classes])
		v.ok.Add(1)
		v.observe(now.Sub(r.enq))
		r.done <- result{pred: Prediction{Class: argmax(p), Probs: p, BatchSize: n, Version: v.id}}
	}
	if canary {
		s.maybeSettleCanary(v)
	}
}

// observeDrain folds one completed batch into the drain-rate EWMA.
func (s *Server) observeDrain(n int, now time.Time) {
	s.drainMu.Lock()
	if !s.lastBatch.IsZero() {
		if dt := now.Sub(s.lastBatch).Seconds(); dt > 0 {
			inst := float64(n) / dt
			if s.drainRate == 0 {
				s.drainRate = inst
			} else {
				s.drainRate = 0.3*inst + 0.7*s.drainRate
			}
		}
	}
	s.lastBatch = now
	s.drainMu.Unlock()
}

// RetryAfterSeconds estimates how long a shed client should wait before
// retrying: the current total queue depth (plus the rejected request itself)
// divided by the observed drain rate, clamped to [1, 30] seconds. Before any
// batch has completed the estimate is the optimistic 1s floor.
func (s *Server) RetryAfterSeconds() int {
	depth := s.queuedTotal() + 1
	s.drainMu.Lock()
	rate := s.drainRate
	s.drainMu.Unlock()
	if rate <= 0 {
		return 1
	}
	secs := int((float64(depth) + rate - 1) / rate)
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// argmax returns the index of the largest value (first on ties).
func argmax(p []float32) int {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}

// finite reports whether every probability is finite.
func finite(p []float32) bool {
	for _, v := range p {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// Close drains the server: new Predict calls fail with ErrDraining, queued
// requests are served, and Close returns once every in-flight batch has
// finished and every retired version pool has drained. Safe to call more
// than once.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	<-s.batchDone
	s.inflight.Wait()
	s.drains.Wait()
}

// TierStats is the per-tier slice of a Stats snapshot.
type TierStats struct {
	// Tier is the tier's wire name.
	Tier string `json:"tier"`
	// Requests counts accepted requests; Shed counts admission rejections;
	// Expired counts requests whose context ended before a result.
	Requests uint64 `json:"requests"`
	Shed     uint64 `json:"shed"`
	Expired  uint64 `json:"expired"`
	// QueueDepth and QueueCap describe the tier's bounded queue.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// End-to-end latency quantiles for requests served at this tier.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
}

// VersionStats is the per-version slice of a Stats snapshot.
type VersionStats struct {
	// ID is the version identifier ("v1" for the boot version, then
	// "v<seq>-<crc32>").
	ID string `json:"id"`
	// Checksum is the CRC32 of the artifact the version was compiled from
	// (0 for the boot version).
	Checksum uint32 `json:"checksum"`
	// Requests and Failures count completed and failed requests served by
	// this version; ErrorRate is their ratio.
	Requests  uint64  `json:"requests"`
	Failures  uint64  `json:"failures"`
	ErrorRate float64 `json:"error_rate"`
	// LatencyP99 is the version's own 99th-percentile request latency.
	LatencyP99 time.Duration `json:"latency_p99_ns"`
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// Replicas is the stable pool size.
	Replicas int `json:"replicas"`
	// QueueCap and QueueDepth describe the bounded request queues, summed
	// across tiers.
	QueueCap   int `json:"queue_cap"`
	QueueDepth int `json:"queue_depth"`
	// Requests counts accepted requests; Rejected counts ErrOverloaded
	// fast-failures; Expired counts requests whose context ended first;
	// Panics counts recovered inference panics.
	Requests uint64 `json:"requests"`
	Rejected uint64 `json:"rejected"`
	Expired  uint64 `json:"expired"`
	Panics   uint64 `json:"panics"`
	// Tiers breaks the request counters down by priority tier, in priority
	// order.
	Tiers []TierStats `json:"tiers"`
	// Stable describes the serving version; Canary is non-nil while a
	// canary is being evaluated, receiving CanaryPercent of traffic.
	Stable        VersionStats  `json:"stable_version"`
	Canary        *VersionStats `json:"canary_version,omitempty"`
	CanaryPercent int           `json:"canary_percent"`
	// Reloads counts verified hot reloads; Rollbacks and Promotions count
	// automatic canary outcomes. LastRollback describes the most recent
	// rollback, if any.
	Reloads      uint64 `json:"reloads"`
	Rollbacks    uint64 `json:"rollbacks"`
	Promotions   uint64 `json:"promotions"`
	LastRollback string `json:"last_rollback,omitempty"`
	// DrainRatePerSec is the observed request completion rate feeding the
	// Retry-After estimate; RetryAfterSeconds is the current estimate.
	DrainRatePerSec   float64 `json:"drain_rate_per_sec"`
	RetryAfterSeconds int     `json:"retry_after_seconds"`
	// Batches counts forward passes; MeanBatchSize and MaxBatchSize
	// describe coalescing quality; BatchSizeCounts[n-1] counts batches of
	// size n.
	Batches         uint64   `json:"batches"`
	MeanBatchSize   float64  `json:"mean_batch_size"`
	MaxBatchSize    int      `json:"max_batch_size"`
	BatchSizeCounts []uint64 `json:"batch_size_counts"`
	// End-to-end request latency quantiles (enqueue to response).
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP95 time.Duration `json:"latency_p95_ns"`
	LatencyMax time.Duration `json:"latency_max_ns"`
	// PoolBuild is the startup wall time spent building the replica pool
	// (replicas build concurrently, so it tracks the slowest single build).
	PoolBuild time.Duration `json:"pool_build_ns"`
	// SharedWeightBytes is the resident weight state shared across every
	// replica (one copy per process; the compiled sparse plan). Zero for
	// dense pools. WeightBytesPerReplica is the weight state each replica
	// holds privately (the full dense parameter vector; zero for sparse
	// pools). Together they make the serving memory collapse observable:
	// dense total = Replicas × WeightBytesPerReplica, sparse total =
	// SharedWeightBytes. Both describe the stable pool.
	SharedWeightBytes     int `json:"shared_weight_bytes"`
	WeightBytesPerReplica int `json:"weight_bytes_per_replica"`
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	stable := s.stable.Load()
	shared, private := stable.pool.WeightBytes()
	st := Stats{
		Replicas:              stable.pool.Size(),
		QueueCap:              NumTiers * s.cfg.QueueDepth,
		QueueDepth:            s.queuedTotal(),
		Requests:              s.requests.Load(),
		Rejected:              s.rejected.Load(),
		Expired:               s.expired.Load(),
		Panics:                s.panics.Load(),
		Stable:                stable.snapshot(),
		CanaryPercent:         int(s.canaryPct.Load()),
		Reloads:               s.reloads.Load(),
		Rollbacks:             s.rollbacks.Load(),
		Promotions:            s.promotions.Load(),
		RetryAfterSeconds:     s.RetryAfterSeconds(),
		PoolBuild:             s.poolBuild,
		SharedWeightBytes:     shared,
		WeightBytesPerReplica: private,
	}
	if c := s.canaryV.Load(); c != nil {
		snap := c.snapshot()
		st.Canary = &snap
	}
	s.drainMu.Lock()
	st.DrainRatePerSec = s.drainRate
	s.drainMu.Unlock()
	s.statsMu.Lock()
	for t := 0; t < NumTiers; t++ {
		st.Tiers = append(st.Tiers, TierStats{
			Tier:       Tier(t).String(),
			Requests:   s.tierRequests[t].Load(),
			Shed:       s.tierShed[t].Load(),
			Expired:    s.tierExpired[t].Load(),
			QueueDepth: len(s.queues[t]),
			QueueCap:   s.cfg.QueueDepth,
			LatencyP50: s.tierLat[t].Quantile(0.5),
			LatencyP99: s.tierLat[t].Quantile(0.99),
		})
	}
	st.Batches = s.batches
	if s.batches > 0 {
		st.MeanBatchSize = float64(s.batchSum) / float64(s.batches)
	}
	st.MaxBatchSize = s.batchMax
	st.BatchSizeCounts = append([]uint64(nil), s.batchDist...)
	st.LatencyP50 = s.latency.Quantile(0.5)
	st.LatencyP95 = s.latency.Quantile(0.95)
	st.LatencyMax = s.latency.Max()
	st.LastRollback = s.lastRollback
	s.statsMu.Unlock()
	return st
}

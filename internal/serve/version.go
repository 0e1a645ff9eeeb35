package serve

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dropback/internal/telemetry"
	"dropback/internal/tensor"
)

// Hot-reload errors, mapped to HTTP statuses by the reload handler.
var (
	// ErrReloadUnsupported reports a server built without Config.Compile.
	ErrReloadUnsupported = errors.New("serve: hot reload not configured (Config.Compile is nil)")
	// ErrReloadInProgress reports a concurrent reload; reloads are serialized.
	ErrReloadInProgress = errors.New("serve: another reload is in progress")
	// ErrBadArtifact reports a reload artifact that failed to compile or
	// failed post-compile verification. The previous version keeps serving.
	ErrBadArtifact = errors.New("serve: reload artifact rejected")
)

// version is one serving generation: a replica pool plus the identity and
// health counters canary evaluation compares. Versions are immutable after
// construction except for their counters; the atomic stable/canary pointers
// in Server are the only mutable routing state.
//
// Lifecycle and memory ordering: a version is fully constructed (pool built,
// probe-verified) before it is Store'd into an atomic pointer, and Go's
// atomic pointer store/load pair gives the publishing happens-before edge —
// a dispatcher that loads the pointer sees a complete version. Retirement
// uses the pin protocol below so a retired pool is drained only after every
// dispatcher that could still reference it has finished.
type version struct {
	id       string
	seq      int64
	checksum uint32
	pool     *Pool

	// inflight counts dispatchers currently between pin and unpin (replica
	// acquire through batch completion). retire waits for it to reach zero
	// before draining the pool.
	inflight atomic.Int64
	retired  atomic.Bool

	// classes is the model's output width, learned from the verification
	// probe (or the first served batch for the boot version); reloads whose
	// output width differs from the stable version's are rejected.
	classes atomic.Int64

	// Health counters for canary-vs-stable comparison.
	ok     atomic.Uint64
	failed atomic.Uint64
	latMu  sync.Mutex
	lat    telemetry.Histogram
}

// observe records one request latency served by this version.
func (v *version) observe(d time.Duration) {
	v.latMu.Lock()
	v.lat.Observe(d)
	v.latMu.Unlock()
}

// p99 returns the version's 99th-percentile request latency.
func (v *version) p99() time.Duration {
	v.latMu.Lock()
	defer v.latMu.Unlock()
	return v.lat.Quantile(0.99)
}

// Canary settlement: a canary is judged once it has completed
// canaryMinRequests requests. It is rolled back when its error rate exceeds
// the stable's by rollbackErrorRatio plus an absolute 1% floor, or its p90
// latency exceeds the stable's by rollbackLatencyRatio, and it is promoted
// to stable after canaryPromoteAfter completed requests.
const (
	canaryMinRequests    = 32
	rollbackErrorRatio   = 2.0
	rollbackLatencyRatio = 3.0
	canaryPromoteAfter   = 256
)

// minLatencySamples is the fewest latency samples on which the latency rule
// compares versions, and it compares their p90: from 100 samples on, at
// least 10 lie beyond it, so a few scheduler or GC stalls on a healthy
// canary cannot decide its fate, while a uniformly slow canary moves every
// quantile. (A p99 from 100 samples is the second largest.)
const minLatencySamples = 100

// settledP90 returns the version's p90 latency, or 0 while it has fewer
// than minLatencySamples samples.
func (v *version) settledP90() time.Duration {
	v.latMu.Lock()
	defer v.latMu.Unlock()
	if v.lat.Count() < minLatencySamples {
		return 0
	}
	return v.lat.Quantile(0.90)
}

// errorRate returns the fraction of failed requests and the total sample
// count.
func (v *version) errorRate() (rate float64, total uint64) {
	ok, failed := v.ok.Load(), v.failed.Load()
	total = ok + failed
	if total == 0 {
		return 0, 0
	}
	return float64(failed) / float64(total), total
}

// snapshot builds the exported view of the version.
func (v *version) snapshot() VersionStats {
	rate, _ := v.errorRate()
	return VersionStats{
		ID:         v.id,
		Checksum:   v.checksum,
		Requests:   v.ok.Load(),
		Failures:   v.failed.Load(),
		ErrorRate:  rate,
		LatencyP99: v.p99(),
	}
}

// newVersion builds a version around a verified pool.
func newVersion(id string, seq int64, checksum uint32, pool *Pool, classes int) *version {
	v := &version{id: id, seq: seq, checksum: checksum, pool: pool}
	v.classes.Store(int64(classes))
	return v
}

// pinStable returns the current stable version with its inflight count
// incremented. The increment-then-revalidate loop closes the race against a
// concurrent swap: either the dispatcher revalidates before the swap and the
// retirer then waits for its unpin, or it revalidates after and retries on
// the new pointer. Stable is never nil, so the loop terminates.
func (s *Server) pinStable() *version {
	for {
		v := s.stable.Load()
		v.inflight.Add(1)
		if s.stable.Load() == v && !v.retired.Load() {
			return v
		}
		v.inflight.Add(-1)
	}
}

// pinCanary pins the current canary, or returns nil when no canary is live
// (the caller falls back to stable).
func (s *Server) pinCanary() *version {
	c := s.canaryV.Load()
	if c == nil {
		return nil
	}
	c.inflight.Add(1)
	if s.canaryV.Load() == c && !c.retired.Load() {
		return c
	}
	c.inflight.Add(-1)
	return nil
}

// unpin releases a pinned version.
func (s *Server) unpin(v *version) { v.inflight.Add(-1) }

// retire drains a version's pool in the background: once every in-flight
// dispatch has unpinned, the replicas are permanently removed so their
// memory can be reclaimed. The request path never waits on this.
func (s *Server) retire(v *version) {
	if v == nil {
		return
	}
	v.retired.Store(true)
	s.drains.Add(1)
	go func() {
		defer s.drains.Done()
		for v.inflight.Load() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		v.pool.Drain()
	}()
}

// ReloadOptions controls how a new version enters service.
type ReloadOptions struct {
	// CanaryPercent routes this share of traffic (0..100) to the new version
	// after verification, with automatic rollback and promotion. 0 swaps the
	// new version in atomically for all traffic as soon as it verifies.
	CanaryPercent int `json:"canary_percent"`
}

// ReloadResult describes the outcome of a successful reload.
type ReloadResult struct {
	// Version is the new version's identifier ("v<seq>-<crc32>").
	Version string `json:"version"`
	// Checksum is the CRC32 (IEEE) of the artifact bytes as compiled.
	Checksum uint32 `json:"checksum"`
	// CanaryPercent is the traffic share routed to the new version (0 when
	// it was swapped in for all traffic immediately).
	CanaryPercent int `json:"canary_percent"`
	// Swapped reports whether the version became stable immediately.
	Swapped bool `json:"swapped"`
	// Replicas is the new pool's size.
	Replicas int `json:"replicas"`
}

// Reload compiles artifact bytes into a fresh replica pool off the request
// path, verifies it (artifact checksum recorded; probe-input shape and
// replica bit-identity checked), and either swaps it in atomically for all
// traffic or starts serving it to CanaryPercent of requests. The previous
// version keeps serving until the swap and is drained in the background
// after it; a rejected artifact leaves the serving state untouched.
func (s *Server) Reload(artifact io.Reader, opts ReloadOptions) (ReloadResult, error) {
	if s.cfg.Compile == nil {
		return ReloadResult{}, ErrReloadUnsupported
	}
	if opts.CanaryPercent < 0 || opts.CanaryPercent > 100 {
		return ReloadResult{}, fmt.Errorf("%w: canary percent %d outside [0, 100]", ErrBadInput, opts.CanaryPercent)
	}
	if !s.reloadMu.TryLock() {
		return ReloadResult{}, ErrReloadInProgress
	}
	defer s.reloadMu.Unlock()

	crc := crc32.NewIEEE()
	build, err := s.cfg.Compile(io.TeeReader(artifact, crc))
	if err != nil {
		return ReloadResult{}, fmt.Errorf("%w: compiling artifact: %v", ErrBadArtifact, err)
	}
	pool, err := NewPool(s.cfg.Replicas, build)
	if err != nil {
		return ReloadResult{}, fmt.Errorf("%w: building pool: %v", ErrBadArtifact, err)
	}
	classes, err := s.verifyPool(pool)
	if err != nil {
		pool.Drain()
		return ReloadResult{}, fmt.Errorf("%w: verification failed: %v", ErrBadArtifact, err)
	}

	seq := s.verSeq.Add(1)
	v := newVersion(fmt.Sprintf("v%d-%08x", seq, crc.Sum32()), seq, crc.Sum32(), pool, classes)
	s.reloads.Add(1)
	s.rec.Counter(CounterReloads, 1)
	res := ReloadResult{Version: v.id, Checksum: v.checksum, CanaryPercent: opts.CanaryPercent, Replicas: pool.Size()}

	if opts.CanaryPercent == 0 {
		// Full atomic swap: one pointer store makes every subsequent
		// dispatch use the new pool; the old pool finishes its in-flight
		// batches and is drained in the background.
		old := s.stable.Swap(v)
		s.retire(old)
		res.Swapped = true
		return res, nil
	}
	// Canary: publish the percent before the pointer so a dispatcher that
	// sees the new canary never reads a stale zero percent.
	s.canaryPct.Store(int64(opts.CanaryPercent))
	if old := s.canaryV.Swap(v); old != nil {
		s.retire(old) // a newer canary replaces an older one still under trial
	}
	s.rec.Gauge(GaugeCanaryPercent, float64(opts.CanaryPercent))
	return res, nil
}

// ReloadFile reloads from an artifact file on disk (the SIGHUP path).
func (s *Server) ReloadFile(path string, opts ReloadOptions) (ReloadResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ReloadResult{}, fmt.Errorf("%w: %v", ErrBadArtifact, err)
	}
	defer f.Close()
	return s.Reload(f, opts)
}

// verifyPool runs the fixed probe input through the fresh pool before it may
// serve: the output must be a [1, classes] tensor with classes > 0, two
// replica passes must agree bit for bit (replica construction must be
// deterministic — the pool invariant), and the output width must match the
// stable version's. A panic during the probe rejects the artifact instead of
// crashing the server.
func (s *Server) verifyPool(pool *Pool) (classes int, err error) {
	defer func() {
		if p := recover(); p != nil {
			classes, err = 0, fmt.Errorf("probe inference panicked: %v", p)
		}
	}()
	xa := tensor.New(append([]int{1}, s.cfg.InputShape...)...)
	for i := range xa.Data {
		xa.Data[i] = float32(i%17) / 17
	}
	xb := xa.Clone() // the second pass gets its own copy of the probe

	a, _ := pool.TryAcquire() // fresh pool: never empty
	outA := a.Infer(xa)
	if len(outA.Shape) != 2 || outA.Shape[0] != 1 || outA.Shape[1] <= 0 {
		pool.Release(a)
		return 0, fmt.Errorf("probe output shape %v, want [1, classes>0]", outA.Shape)
	}
	classes = outA.Shape[1]
	ref := append([]float32(nil), outA.Data...) // outA is replica-owned scratch

	// Bit-identity across replicas (or across repeated passes when the pool
	// has a single replica): which replica serves a request must never
	// change the answer.
	b := a
	if pool.Size() > 1 {
		b, _ = pool.TryAcquire()
	}
	outB := b.Infer(xb)
	defer func() {
		pool.Release(a)
		if b != a {
			pool.Release(b)
		}
	}()
	if len(outB.Data) != len(ref) {
		return 0, fmt.Errorf("probe outputs disagree in size: %d vs %d", len(outB.Data), len(ref))
	}
	for i := range ref {
		if math.Float32bits(outB.Data[i]) != math.Float32bits(ref[i]) {
			return 0, fmt.Errorf("probe outputs not bit-identical across replicas at logit %d: %g vs %g",
				i, outB.Data[i], ref[i])
		}
	}
	if st := s.stable.Load(); st != nil {
		if sc := st.classes.Load(); sc != 0 && int(sc) != classes {
			return 0, fmt.Errorf("output width %d does not match serving version's %d", classes, sc)
		}
	}
	return classes, nil
}

// maybeSettleCanary evaluates the live canary after one of its requests
// completes: a regression against stable rolls it back, a long enough
// healthy run promotes it. Evaluation is advisory and lock-free on the hot
// path — if an admin operation holds the reload lock, the next completed
// canary request re-evaluates.
func (s *Server) maybeSettleCanary(v *version) {
	rate, total := v.errorRate()
	if total < canaryMinRequests {
		return
	}
	if !s.reloadMu.TryLock() {
		return
	}
	defer s.reloadMu.Unlock()
	if s.canaryV.Load() != v {
		return // already promoted, rolled back or replaced by a newer reload
	}
	st := s.stable.Load()
	if reason := canaryRegression(v, st, rate); reason != "" {
		s.canaryPct.Store(0)
		s.canaryV.Store(nil)
		s.retire(v)
		s.rollbacks.Add(1)
		s.rec.Counter(CounterRollbacks, 1)
		s.rec.Gauge(GaugeCanaryPercent, 0)
		s.statsMu.Lock()
		s.lastRollback = fmt.Sprintf("%s rolled back: %s", v.id, reason)
		s.statsMu.Unlock()
		return
	}
	if total >= canaryPromoteAfter {
		old := s.stable.Swap(v)
		s.canaryPct.Store(0)
		s.canaryV.Store(nil)
		s.retire(old)
		s.promotions.Add(1)
		s.rec.Counter(CounterPromotions, 1)
		s.rec.Gauge(GaugeCanaryPercent, 0)
	}
}

// canaryRegression reports why the canary must roll back, or "" when it is
// healthy: its error rate exceeds the stable rate by rollbackErrorRatio
// (plus an absolute 1% floor so a perfectly clean stable does not make any
// single canary error fatal), or its p90 exceeds the stable p90 by
// rollbackLatencyRatio once both have minLatencySamples latency samples.
func canaryRegression(c, st *version, canaryRate float64) string {
	stableRate, _ := st.errorRate()
	if limit := stableRate*rollbackErrorRatio + 0.01; canaryRate > limit {
		return fmt.Sprintf("error rate %.4f exceeds %.4f (stable %.4f x ratio %.1f + 0.01)",
			canaryRate, limit, stableRate, rollbackErrorRatio)
	}
	if sp90 := st.settledP90(); sp90 > 0 {
		if cp90 := c.settledP90(); cp90 > time.Duration(float64(sp90)*rollbackLatencyRatio) {
			return fmt.Sprintf("p90 %v exceeds stable %v x ratio %.1f", cp90, sp90, rollbackLatencyRatio)
		}
	}
	return ""
}

// hashInput is the deterministic canary routing hash (FNV-1a over the input
// bytes): the same input always routes to the same version at a given canary
// percent, which makes canary behavior reproducible and testable.
func hashInput(in []float32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range in {
		b := math.Float32bits(v)
		for i := 0; i < 32; i += 8 {
			h ^= uint64(byte(b >> i))
			h *= 1099511628211
		}
	}
	return h
}

package serve_test

// Chaos suite: fault-injection e2e tests for the serving robustness layer,
// run under -race in CI (the serve-chaos job). The injectors live in
// internal/faults (which imports serve, hence the external test package);
// every fault enters through a production seam — Config.NewSparseReplica,
// Config.Compile, or the artifact byte stream — never through test-only
// backdoors in the server itself.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropback/internal/faults"
	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/serve"
	"dropback/internal/sparse"
	"dropback/internal/tensor"
)

// chaosIn is the per-sample input length of the chaos-test MLP.
const chaosIn = 16

var chaosShape = []int{chaosIn}

// chaosProto builds the fixed prototype architecture every chaos-test
// artifact applies onto (16 -> 12 -> 4, seed 7).
func chaosProto() *nn.Model {
	return models.NewMLP(models.MLPConfig{Name: "chaos", In: chaosIn, Hidden: []int{12}, Classes: 4, Seed: 7})
}

// trainedArtifact perturbs ~10% of the prototype's weights with rng seed s
// and compresses the result — a stand-in for a training run, where different
// seeds yield observably different models.
func trainedArtifact(s int64) *sparse.Artifact {
	m := chaosProto()
	rng := rand.New(rand.NewSource(s))
	for i := 0; i < m.Set.Total(); i++ {
		if rng.Float64() < 0.1 {
			m.Set.Set(i, rng.Float32()-0.5)
		}
	}
	return sparse.Compress(m)
}

// artifactBytes serializes an artifact to its on-disk byte format.
func artifactBytes(t testing.TB, a *sparse.Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compilePlan compiles an artifact against the prototype.
func compilePlan(t testing.TB, a *sparse.Artifact) *sparse.Plan {
	t.Helper()
	plan, err := sparse.Compile(chaosProto(), a)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// chaosCompile is the production-shaped Config.Compile: parse the artifact
// stream, compile one shared plan, hand out executor replicas over it.
func chaosCompile() func(io.Reader) (func() (serve.Replica, error), error) {
	return func(r io.Reader) (func() (serve.Replica, error), error) {
		art, err := sparse.Read(r)
		if err != nil {
			return nil, err
		}
		plan, err := sparse.Compile(chaosProto(), art)
		if err != nil {
			return nil, err
		}
		return func() (serve.Replica, error) { return sparse.NewExecutor(plan), nil }, nil
	}
}

// refPredict computes the single-threaded dense reference answer for an
// artifact — what the server must reproduce bit for bit whenever that
// artifact's version serves a request.
func refPredict(t testing.TB, art *sparse.Artifact, in []float32) serve.Prediction {
	t.Helper()
	m := chaosProto()
	if err := art.Apply(m); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice(append([]float32(nil), in...), 1, chaosIn)
	probs := tensor.SoftmaxRows(m.Net.Forward(x, false))
	p := append([]float32(nil), probs.Data...)
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return serve.Prediction{Class: best, Probs: p}
}

// samePred reports whether a served prediction is bit-identical to its
// reference (class and every probability).
func samePred(got, want serve.Prediction) bool {
	if got.Class != want.Class || len(got.Probs) != len(want.Probs) {
		return false
	}
	for i := range want.Probs {
		if math.Float32bits(got.Probs[i]) != math.Float32bits(want.Probs[i]) {
			return false
		}
	}
	return true
}

func chaosInputs(rng *rand.Rand, n int) [][]float32 {
	ins := make([][]float32, n)
	for i := range ins {
		v := make([]float32, chaosIn)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		ins[i] = v
	}
	return ins
}

// TestReloadUnderLoadZeroLoss is the hot-reload acceptance test: a full
// atomic swap lands while sustained concurrent traffic races through the
// server, and not one request fails or sees an answer that is not
// bit-identical to its reported version's reference model.
func TestReloadUnderLoadZeroLoss(t *testing.T) {
	artA, artB := trainedArtifact(1), trainedArtifact(2)
	planA := compilePlan(t, artA)
	s, err := serve.New(serve.Config{
		NewSparseReplica: func() (serve.Replica, error) { return sparse.NewExecutor(planA), nil },
		Compile:          chaosCompile(),
		InputShape:       chaosShape,
		Replicas:         2,
		MaxBatch:         4,
		MaxWait:          time.Millisecond,
		QueueDepth:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(9))
	const nin = 8
	inputs := chaosInputs(rng, nin)
	refA := make([]serve.Prediction, nin)
	refB := make([]serve.Prediction, nin)
	for i := range inputs {
		refA[i] = refPredict(t, artA, inputs[i])
		refB[i] = refPredict(t, artB, inputs[i])
	}
	if samePred(refA[0], refB[0]) {
		t.Fatal("setup: v1 and v2 predict identically; reload would be unobservable")
	}

	var (
		stop     atomic.Bool
		failures atomic.Int64
		mismatch atomic.Int64
		v2Seen   atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				idx := i % nin
				p, err := s.Predict(context.Background(), inputs[idx])
				if err != nil {
					failures.Add(1)
					continue
				}
				want := refA[idx]
				switch {
				case p.Version == "v1":
				case strings.HasPrefix(p.Version, "v2-"):
					want = refB[idx]
					v2Seen.Add(1)
				default:
					mismatch.Add(1)
					continue
				}
				if !samePred(p, want) {
					mismatch.Add(1)
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let the load establish on v1
	res, err := s.Reload(bytes.NewReader(artifactBytes(t, artB)), serve.ReloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || !strings.HasPrefix(res.Version, "v2-") {
		t.Fatalf("reload result %+v: want immediate swap to a v2 version", res)
	}

	deadline := time.Now().Add(10 * time.Second)
	for v2Seen.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Errorf("%d requests failed across the reload, want 0 (zero in-flight loss)", n)
	}
	if n := mismatch.Load(); n != 0 {
		t.Errorf("%d answers not bit-identical to their version's reference", n)
	}
	if v2Seen.Load() == 0 {
		t.Error("no request was served by v2 after the swap")
	}
	st := s.Stats()
	if st.Reloads != 1 {
		t.Errorf("stats: reloads=%d, want 1", st.Reloads)
	}
	if st.Stable.ID != res.Version {
		t.Errorf("stats: stable version %q, want %q", st.Stable.ID, res.Version)
	}
	if st.Stable.Checksum != res.Checksum {
		t.Errorf("stats: stable checksum %#x, want %#x", st.Stable.Checksum, res.Checksum)
	}
}

// TestCorruptReloadRejected proves a reload whose artifact is corrupted in
// transit (bit flip) or truncated on disk (torn write) is rejected with
// ErrBadArtifact while the prior version keeps serving bit-identical
// answers.
func TestCorruptReloadRejected(t *testing.T) {
	artA := trainedArtifact(1)
	planA := compilePlan(t, artA)
	s, err := serve.New(serve.Config{
		NewSparseReplica: func() (serve.Replica, error) { return sparse.NewExecutor(planA), nil },
		Compile:          chaosCompile(),
		InputShape:       chaosShape,
		Replicas:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(2))
	in := chaosInputs(rng, 1)[0]
	want := refPredict(t, artA, in)
	if p, err := s.Predict(context.Background(), in); err != nil || !samePred(p, want) {
		t.Fatalf("baseline predict broken before injection: %v", err)
	}

	raw := artifactBytes(t, trainedArtifact(2))

	t.Run("bit-flip", func(t *testing.T) {
		flip := &faults.FlipReader{R: bytes.NewReader(raw), Offset: int64(len(raw) / 2), Bit: 3}
		if _, err := s.Reload(flip, serve.ReloadOptions{}); !errors.Is(err, serve.ErrBadArtifact) {
			t.Errorf("flipped artifact: got %v, want ErrBadArtifact", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		path := t.TempDir() + "/model.dbsp"
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faults.TruncateFile(path, int64(len(raw)-3)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReloadFile(path, serve.ReloadOptions{}); !errors.Is(err, serve.ErrBadArtifact) {
			t.Errorf("truncated artifact: got %v, want ErrBadArtifact", err)
		}
	})
	t.Run("missing-file", func(t *testing.T) {
		if _, err := s.ReloadFile(t.TempDir()+"/nope.dbsp", serve.ReloadOptions{}); !errors.Is(err, serve.ErrBadArtifact) {
			t.Errorf("missing artifact: got %v, want ErrBadArtifact", err)
		}
	})

	st := s.Stats()
	if st.Reloads != 0 {
		t.Errorf("stats: reloads=%d after only rejected attempts, want 0", st.Reloads)
	}
	if st.Stable.ID != "v1" {
		t.Errorf("stats: stable version %q, want v1 still serving", st.Stable.ID)
	}
	p, err := s.Predict(context.Background(), in)
	if err != nil {
		t.Fatalf("predict after rejected reloads: %v", err)
	}
	if p.Version != "v1" || !samePred(p, want) {
		t.Errorf("post-rejection answer from %q not bit-identical to v1 reference", p.Version)
	}
}

// TestCanaryAutoRollback injects a canary whose replicas pass verification
// but panic on every second inference, and proves the error-rate comparison
// rolls it back automatically with stable untouched.
func TestCanaryAutoRollback(t *testing.T) {
	artA := trainedArtifact(1)
	planA := compilePlan(t, artA)
	s, err := serve.New(serve.Config{
		NewSparseReplica: func() (serve.Replica, error) { return sparse.NewExecutor(planA), nil },
		// The chaos canary: verification's single probe call per replica
		// succeeds, then every second call panics — a latent fault that only
		// live traffic exposes, exactly what canarying exists to catch.
		Compile: func(r io.Reader) (func() (serve.Replica, error), error) {
			art, err := sparse.Read(r)
			if err != nil {
				return nil, err
			}
			plan, err := sparse.Compile(chaosProto(), art)
			if err != nil {
				return nil, err
			}
			return func() (serve.Replica, error) {
				return &faults.ChaosReplica{R: sparse.NewExecutor(plan), PanicEvery: 2}, nil
			}, nil
		},
		InputShape: chaosShape,
		Replicas:   2,
		MaxBatch:   4,
		QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(3))
	inputs := chaosInputs(rng, 32)
	ref := make([]serve.Prediction, len(inputs))
	for i := range inputs {
		ref[i] = refPredict(t, artA, inputs[i])
	}
	// Establish stable health so the canary has a baseline to regress from.
	for i := 0; i < 8; i++ {
		if _, err := s.Predict(context.Background(), inputs[i%len(inputs)]); err != nil {
			t.Fatal(err)
		}
	}

	res, err := s.Reload(bytes.NewReader(artifactBytes(t, trainedArtifact(2))), serve.ReloadOptions{CanaryPercent: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swapped || res.CanaryPercent != 50 {
		t.Fatalf("reload result %+v: want unswapped 50%% canary", res)
	}
	if st := s.Stats(); st.Canary == nil || st.CanaryPercent != 50 {
		t.Fatalf("stats after canary reload: canary=%v percent=%d", st.Canary, st.CanaryPercent)
	}

	// Drive traffic until the rollback fires; canary-routed requests are
	// expected to error while the bad version is live.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Rollbacks == 0 && time.Now().Before(deadline) {
		_, _ = s.Predict(context.Background(), inputs[rng.Intn(len(inputs))])
	}

	st := s.Stats()
	if st.Rollbacks != 1 {
		t.Fatalf("stats: rollbacks=%d, want 1", st.Rollbacks)
	}
	if st.Canary != nil || st.CanaryPercent != 0 {
		t.Errorf("stats: canary still routed after rollback (canary=%v percent=%d)", st.Canary, st.CanaryPercent)
	}
	if st.Stable.ID != "v1" {
		t.Errorf("stats: stable version %q after rollback, want v1", st.Stable.ID)
	}
	if !strings.Contains(st.LastRollback, "error rate") {
		t.Errorf("stats: last rollback %q does not name the error-rate condition", st.LastRollback)
	}
	if st.Promotions != 0 {
		t.Errorf("stats: promotions=%d for a failing canary, want 0", st.Promotions)
	}
	// The floor holds: stable serves clean, bit-identical answers.
	for i := 0; i < 8; i++ {
		p, err := s.Predict(context.Background(), inputs[i])
		if err != nil {
			t.Fatalf("predict %d after rollback: %v", i, err)
		}
		if p.Version != "v1" || !samePred(p, ref[i]) {
			t.Fatalf("predict %d after rollback served %q, not bit-identical v1", i, p.Version)
		}
	}
}

// TestCanaryPromotion is the happy path: a healthy canary is promoted to
// stable after enough clean traffic, and the old stable drains away.
func TestCanaryPromotion(t *testing.T) {
	artA, artB := trainedArtifact(1), trainedArtifact(2)
	planA := compilePlan(t, artA)
	s, err := serve.New(serve.Config{
		NewSparseReplica: func() (serve.Replica, error) { return sparse.NewExecutor(planA), nil },
		Compile:          chaosCompile(),
		InputShape:       chaosShape,
		Replicas:         2,
		MaxBatch:         4,
		QueueDepth:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(5))
	inputs := chaosInputs(rng, 32)
	for i := 0; i < 8; i++ {
		if _, err := s.Predict(context.Background(), inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Reload(bytes.NewReader(artifactBytes(t, artB)), serve.ReloadOptions{CanaryPercent: 50})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Promotions == 0 && time.Now().Before(deadline) {
		if _, err := s.Predict(context.Background(), inputs[rng.Intn(len(inputs))]); err != nil {
			t.Fatalf("healthy canary traffic failed: %v", err)
		}
	}
	st := s.Stats()
	if st.Promotions != 1 || st.Rollbacks != 0 {
		t.Fatalf("stats: promotions=%d rollbacks=%d, want 1/0", st.Promotions, st.Rollbacks)
	}
	if st.Stable.ID != res.Version {
		t.Errorf("stats: stable version %q after promotion, want %q", st.Stable.ID, res.Version)
	}
	if st.Canary != nil || st.CanaryPercent != 0 {
		t.Errorf("stats: canary still live after promotion")
	}
	// All traffic now lands on the promoted version, bit-identical to B.
	p, err := s.Predict(context.Background(), inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != res.Version || !samePred(p, refPredict(t, artB, inputs[0])) {
		t.Errorf("post-promotion answer from %q not bit-identical to promoted model", p.Version)
	}
}

// TestTierSheddingUnderStall wedges the only replica mid-inference (the
// stalled-consumer fault) and floods all three tiers: best-effort and batch
// must shed, interactive must not lose a single request, and releasing the
// stall must recover the server completely.
func TestTierSheddingUnderStall(t *testing.T) {
	artA := trainedArtifact(1)
	planA := compilePlan(t, artA)
	stall := make(chan struct{})
	entered := make(chan struct{}, 64)
	s, err := serve.New(serve.Config{
		NewSparseReplica: func() (serve.Replica, error) {
			return &faults.ChaosReplica{R: sparse.NewExecutor(planA), Stall: stall, Entered: entered}, nil
		},
		InputShape: chaosShape,
		Replicas:   1,
		MaxBatch:   1,
		MaxWait:    -1, // no coalescing: dispatch immediately
		QueueDepth: 4,  // per tier; total capacity 12
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	in := chaosInputs(rng, 1)[0]
	bg := context.Background()

	var wg sync.WaitGroup
	var firstErr error
	wg.Add(1)
	go func() { defer wg.Done(); _, firstErr = s.Predict(bg, in) }()
	<-entered // the replica is now checked out and stalled inside Infer

	// Flood: 3 more interactive, 6 batch, 8 best-effort. While the replica
	// is stalled the batcher holds at most one more request, so per tier at
	// most queue cap + 1 can be accepted: best-effort (8 sent) must shed
	// >= 3, batch (6 sent) >= 1, and interactive (3 extras vs cap 4, total
	// occupancy capped at 11/12) can never shed.
	counts := map[serve.Tier]int{serve.TierInteractive: 3, serve.TierBatch: 6, serve.TierBestEffort: 8}
	errsByTier := map[serve.Tier][]error{}
	total := 1
	for tier, n := range counts {
		total += n
		errsByTier[tier] = make([]error, n)
	}
	for tier, errs := range errsByTier {
		for i := range errs {
			wg.Add(1)
			go func(tier serve.Tier, slot *error) {
				defer wg.Done()
				_, err := s.PredictTier(bg, in, tier)
				*slot = err
			}(tier, &errs[i])
		}
	}

	// Sheds are synchronous, so accepted+shed settles to the launch total.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Requests+st.Rejected >= uint64(total) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Stats()
	shedOf := func(name string) uint64 {
		for _, ts := range st.Tiers {
			if ts.Tier == name {
				return ts.Shed
			}
		}
		t.Fatalf("tier %q missing from stats", name)
		return 0
	}
	if n := shedOf("interactive"); n != 0 {
		t.Errorf("interactive shed %d requests under overload, want 0", n)
	}
	if n := shedOf("best-effort"); n < 3 {
		t.Errorf("best-effort shed %d of 8, want >= 3", n)
	}
	if n := shedOf("batch"); n < 1 {
		t.Errorf("batch shed %d of 6, want >= 1", n)
	}

	// Stalled-consumer recovery: release the stall and everything accepted
	// completes; nothing interactive may have failed.
	close(stall)
	wg.Wait()
	if firstErr != nil {
		t.Errorf("stalled request failed: %v", firstErr)
	}
	for _, err := range errsByTier[serve.TierInteractive] {
		if err != nil {
			t.Errorf("interactive request failed under overload: %v", err)
		}
	}
	for tier, errs := range errsByTier {
		for _, err := range errs {
			if err != nil && !errors.Is(err, serve.ErrOverloaded) {
				t.Errorf("%v request: got %v, want success or ErrOverloaded", tier, err)
			}
		}
	}
	// Fully recovered: even best-effort is admitted and served again.
	if _, err := s.PredictTier(bg, in, serve.TierBestEffort); err != nil {
		t.Errorf("best-effort predict after recovery: %v", err)
	}
	s.Close()
}

// TestExpiredRequestReleasesBatcher is the AcquireCtx regression test: with
// the only replica stalled, a request whose deadline passes must return
// promptly (not wait for the replica) and must not wedge the batcher — later
// requests are still served once the replica frees up.
func TestExpiredRequestReleasesBatcher(t *testing.T) {
	artA := trainedArtifact(1)
	planA := compilePlan(t, artA)
	stall := make(chan struct{})
	entered := make(chan struct{}, 64)
	chaos := &faults.ChaosReplica{R: sparse.NewExecutor(planA), Stall: stall, Entered: entered}
	s, err := serve.New(serve.Config{
		NewSparseReplica: func() (serve.Replica, error) { return chaos, nil },
		InputShape:       chaosShape,
		Replicas:         1,
		MaxBatch:         1,
		MaxWait:          -1,
		QueueDepth:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	in := chaosInputs(rng, 1)[0]
	bg := context.Background()

	done := make(chan error, 1)
	go func() { _, err := s.Predict(bg, in); done <- err }()
	<-entered // replica stalled

	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.Predict(ctx, in)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request: got %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("expired request held for %v, want prompt return at its deadline", waited)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Errorf("stats: expired=%d, want 1", st.Expired)
	}

	// A later request must still be served: the dead batch may not wedge the
	// batcher or burn the replica (the skip-dead check means the expired
	// request never reaches Infer).
	later := make(chan error, 1)
	go func() { _, err := s.Predict(bg, in); later <- err }()
	time.Sleep(10 * time.Millisecond) // let the dead batch get dropped
	close(stall)
	if err := <-done; err != nil {
		t.Errorf("stalled request failed: %v", err)
	}
	if err := <-later; err != nil {
		t.Errorf("post-expiry request failed: %v", err)
	}
	if n := chaos.Calls(); n != 2 {
		t.Errorf("replica ran %d inferences, want 2 (expired request must never reach Infer)", n)
	}
	s.Close()
}

// TestAcquireCtxStarvedPool is the satellite regression test for the pool
// primitive itself: a starved pool must honor the caller's deadline, and a
// free replica must win over a simultaneously-done context.
func TestAcquireCtxStarvedPool(t *testing.T) {
	artA := trainedArtifact(1)
	planA := compilePlan(t, artA)
	p, err := serve.NewPool(1, func() (serve.Replica, error) { return sparse.NewExecutor(planA), nil })
	if err != nil {
		t.Fatal(err)
	}
	held := p.Acquire() // starve the pool

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := p.AcquireCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("starved AcquireCtx: got %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("starved AcquireCtx blocked %v past its deadline", waited)
	}

	p.Release(held)
	// With a free replica, even an already-cancelled context acquires: work
	// that can proceed immediately is never failed spuriously.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	r, err := p.AcquireCtx(dead)
	if err != nil {
		t.Fatalf("AcquireCtx with free replica and dead context: %v, want success", err)
	}
	p.Release(r)
}

package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/prune"
	"dropback/internal/tensor"
)

// testShape is the per-sample input shape of the test MLP.
var testShape = []int{16}

// newTestModel builds a small deterministic MLP (16 → 12 → 4); every call
// with the same seed yields a bit-identical model, mirroring the
// artifact-seeded replica construction the pool relies on.
func newTestModel(seed uint64) (*nn.Model, error) {
	return models.NewMLP(models.MLPConfig{
		Name: "servetest", In: 16, Hidden: []int{12}, Classes: 4, Seed: seed,
	}), nil
}

// ModelReplicas adapts a dense-model constructor to
// Config.NewSparseReplica, wrapping each model in a ModelReplica.
func ModelReplicas(build func() (*nn.Model, error)) func() (Replica, error) {
	return func() (Replica, error) {
		m, err := build()
		if err != nil {
			return nil, err
		}
		return ModelReplica{M: m}, nil
	}
}

func testConfig() Config {
	return Config{
		NewSparseReplica: ModelReplicas(func() (*nn.Model, error) { return newTestModel(7) }),
		InputShape:       testShape,
		Replicas:         4,
		MaxBatch:         8,
		MaxWait:          time.Millisecond,
		QueueDepth:       256,
	}
}

// randInput returns a deterministic pseudo-random input vector.
func randInput(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

// referencePredict computes the single-threaded, batch-of-one answer the
// server must reproduce bit-for-bit.
func referencePredict(m *nn.Model, input []float32) Prediction {
	x := tensor.FromSlice(append([]float32(nil), input...), 1, len(input))
	probs := tensor.SoftmaxRows(m.Net.Forward(x, false))
	p := append([]float32(nil), probs.Data...)
	return Prediction{Class: argmax(p), Probs: p}
}

// TestConcurrentPredictMatchesSequentialEval is the acceptance test for the
// replica pool: 64 simultaneous Predict calls race through a 4-replica pool
// (run under `go test -race`), and every response must be bit-identical to a
// single-threaded forward pass on the same input — regardless of which
// replica served it or how requests were batched together.
func TestConcurrentPredictMatchesSequentialEval(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref, _ := newTestModel(7)
	rng := rand.New(rand.NewSource(42))
	const n = 64
	inputs := make([][]float32, n)
	want := make([]Prediction, n)
	for i := range inputs {
		inputs[i] = randInput(rng, s.InputLen())
		want[i] = referencePredict(ref, inputs[i])
	}

	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		got   = make([]Prediction, n)
		errs  = make([]error, n)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start // barrier: all goroutines submit at once
			got[i], errs[i] = s.Predict(context.Background(), inputs[i])
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: unexpected error: %v", i, errs[i])
		}
		if got[i].Class != want[i].Class {
			t.Errorf("request %d: class %d, single-threaded reference %d", i, got[i].Class, want[i].Class)
		}
		if len(got[i].Probs) != len(want[i].Probs) {
			t.Fatalf("request %d: %d probs, want %d", i, len(got[i].Probs), len(want[i].Probs))
		}
		for c := range got[i].Probs {
			if math.Float32bits(got[i].Probs[c]) != math.Float32bits(want[i].Probs[c]) {
				t.Errorf("request %d class %d: prob %g not bit-identical to reference %g",
					i, c, got[i].Probs[c], want[i].Probs[c])
			}
		}
		if got[i].BatchSize < 1 || got[i].BatchSize > 8 {
			t.Errorf("request %d: batch size %d outside [1, MaxBatch]", i, got[i].BatchSize)
		}
	}
	st := s.Stats()
	if st.Requests != n {
		t.Errorf("stats: %d requests, want %d", st.Requests, n)
	}
	if st.Rejected != 0 || st.Expired != 0 || st.Panics != 0 {
		t.Errorf("stats: rejected=%d expired=%d panics=%d, want all zero", st.Rejected, st.Expired, st.Panics)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Errorf("stats: %d batches for %d requests", st.Batches, n)
	}
}

// TestPoolReplicasBitIdentical checks the pool invariant directly: every
// replica produces bit-identical logits, so which replica serves a request
// can never change the answer.
func TestPoolReplicasBitIdentical(t *testing.T) {
	p, err := NewPool(4, func() (Replica, error) {
		m, err := newTestModel(7)
		if err != nil {
			return nil, err
		}
		return ModelReplica{M: m}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 4 || p.Free() != 4 {
		t.Fatalf("size %d free %d, want 4/4", p.Size(), p.Free())
	}
	rng := rand.New(rand.NewSource(3))
	input := randInput(rng, 16)

	var ref []float32
	replicas := make([]Replica, 4)
	for i := range replicas {
		replicas[i] = p.Acquire()
	}
	if p.Free() != 0 {
		t.Fatalf("free %d after acquiring all, want 0", p.Free())
	}
	for i, m := range replicas {
		x := tensor.FromSlice(append([]float32(nil), input...), 1, 16)
		out := m.Infer(x)
		if i == 0 {
			ref = append([]float32(nil), out.Data...)
			continue
		}
		for j := range out.Data {
			if math.Float32bits(out.Data[j]) != math.Float32bits(ref[j]) {
				t.Fatalf("replica %d logit %d = %g differs from replica 0's %g", i, j, out.Data[j], ref[j])
			}
		}
	}
	for _, m := range replicas {
		p.Release(m)
	}
	if p.Free() != 4 {
		t.Fatalf("free %d after releasing all, want 4", p.Free())
	}
}

func TestPoolSizeValidation(t *testing.T) {
	build := func() (Replica, error) {
		m, err := newTestModel(1)
		if err != nil {
			return nil, err
		}
		return ModelReplica{M: m}, nil
	}
	if _, err := NewPool(0, build); err == nil {
		t.Error("NewPool(0) succeeded, want error")
	}
	if _, err := NewPool(2, func() (Replica, error) { return nil, nil }); err == nil {
		t.Error("nil-replica constructor accepted, want error")
	}
	boom := errors.New("boom")
	if _, err := NewPool(2, func() (Replica, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("constructor error not propagated: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{InputShape: testShape}); err == nil {
		t.Error("missing NewSparseReplica accepted, want error")
	}
	if _, err := New(Config{NewSparseReplica: ModelReplicas(func() (*nn.Model, error) { return newTestModel(1) })}); err == nil {
		t.Error("missing InputShape accepted, want error")
	}
	cfg := testConfig()
	cfg.InputShape = []int{3, 0, 12}
	if _, err := New(cfg); err == nil {
		t.Error("zero input dimension accepted, want error")
	}
}

func TestPredictBadInput(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Predict(context.Background(), make([]float32, 5)); !errors.Is(err, ErrBadInput) {
		t.Errorf("short input: got %v, want ErrBadInput", err)
	}
	if _, err := s.Predict(context.Background(), nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil input: got %v, want ErrBadInput", err)
	}
}

// gateLayer blocks every Forward call until its gate channel is closed, and
// signals each entry, letting tests hold a replica busy deterministically.
type gateLayer struct {
	entered chan struct{}
	gate    chan struct{}
}

func newGateLayer() *gateLayer {
	return &gateLayer{entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (l *gateLayer) Name() string { return "gate" }
func (l *gateLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	select {
	case l.entered <- struct{}{}:
	default:
	}
	<-l.gate
	return x
}
func (l *gateLayer) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }
func (l *gateLayer) Params() []*nn.Param                       { return nil }

// gatedModel wires a gate layer in front of a linear head.
func gatedModel(gate *gateLayer) func() (Replica, error) {
	return ModelReplicas(func() (*nn.Model, error) {
		seq := nn.NewSequential("gated", gate,
			prune.Standard{}.Linear("gated/fc", 1, 16, 4))
		return nn.NewModel(seq, 1), nil
	})
}

// TestBackpressureOverflow fills the bounded queue behind a deliberately
// blocked replica and checks overflow is rejected fast with ErrOverloaded —
// the acceptance criterion for backpressure.
func TestBackpressureOverflow(t *testing.T) {
	gate := newGateLayer()
	s, err := New(Config{
		NewSparseReplica: gatedModel(gate),
		InputShape:       testShape,
		Replicas:         1,
		MaxBatch:         1,
		MaxWait:          -1, // no coalescing wait: dispatch immediately
		QueueDepth:       2,
	})
	if err != nil {
		t.Fatal(err)
	}

	input := make([]float32, 16)
	bg := context.Background()
	var wg sync.WaitGroup
	// First request occupies the replica (blocked inside Forward)...
	wg.Add(1)
	var firstErr error
	go func() { defer wg.Done(); _, firstErr = s.Predict(bg, input) }()
	<-gate.entered
	// ...so of 7 more concurrent requests at most 3 can be accepted: one
	// held by the batcher (blocked acquiring the busy replica) plus
	// QueueDepth=2 in the queue. The other >=4 must be rejected fast.
	const extra = 7
	errs := make([]error, extra)
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Predict(bg, input)
		}(i)
	}
	// Rejections are synchronous, so once rejected+accepted accounts for all
	// extras the errs slice is final for the rejected ones; wait for the
	// counters rather than sleeping.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Rejected+st.Requests >= extra+1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Stats()
	if st.Rejected < 4 {
		t.Errorf("stats: rejected=%d, want >= 4 (1 running + 1 batching + 2 queued of 8)", st.Rejected)
	}
	close(gate.gate) // release the replica; accepted work completes
	wg.Wait()
	if firstErr != nil {
		t.Errorf("first (running) request failed: %v", firstErr)
	}
	rejected := 0
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Errorf("request %d: got %v, want nil or ErrOverloaded", i, err)
		}
	}
	if rejected < 4 {
		t.Errorf("%d of %d extra requests rejected, want >= 4", rejected, extra)
	}
	s.Close()
}

// TestPredictContextTimeout checks a caller whose context expires while its
// request waits gets ctx.Err() and is counted as expired.
func TestPredictContextTimeout(t *testing.T) {
	gate := newGateLayer()
	s, err := New(Config{
		NewSparseReplica: gatedModel(gate),
		InputShape:       testShape,
		Replicas:         1,
		MaxBatch:         1,
		MaxWait:          -1,
		QueueDepth:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float32, 16)
	done := make(chan struct{})
	go func() { defer close(done); s.Predict(context.Background(), input) }()
	<-gate.entered // replica is now busy

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Predict(ctx, input); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want context.DeadlineExceeded", err)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Errorf("stats: expired=%d, want 1", st.Expired)
	}
	close(gate.gate)
	<-done
	s.Close()
}

// panicLayer fails every forward pass.
type panicLayer struct{}

func (panicLayer) Name() string                                        { return "panic" }
func (panicLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { panic("injected fault") }
func (panicLayer) Backward(dy *tensor.Tensor) *tensor.Tensor           { return dy }
func (panicLayer) Params() []*nn.Param                                 { return nil }

// TestPanicRecovery checks an inference panic fails the batch with an error
// instead of killing the process, and that the replica is released so the
// server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	s, err := New(Config{
		NewSparseReplica: ModelReplicas(func() (*nn.Model, error) {
			return nn.NewModel(nn.NewSequential("p", panicLayer{}), 1), nil
		}),
		InputShape: testShape,
		Replicas:   1,
		MaxBatch:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	input := make([]float32, 16)
	for i := 0; i < 3; i++ { // repeats prove the replica is not leaked
		_, err := s.Predict(context.Background(), input)
		if err == nil || !strings.Contains(err.Error(), "inference panic") {
			t.Fatalf("attempt %d: got %v, want inference panic error", i, err)
		}
	}
	if st := s.Stats(); st.Panics != 3 {
		t.Errorf("stats: panics=%d, want 3", st.Panics)
	}
}

// TestBatchCoalescing holds the single replica busy while requests gather,
// then checks they were served in coalesced batches rather than one by one.
func TestBatchCoalescing(t *testing.T) {
	gate := newGateLayer()
	s, err := New(Config{
		NewSparseReplica: gatedModel(gate),
		InputShape:       testShape,
		Replicas:         1,
		MaxBatch:         8,
		MaxWait:          200 * time.Millisecond,
		QueueDepth:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float32, 16)
	var wg sync.WaitGroup
	preds := make([]Prediction, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], _ = s.Predict(context.Background(), input)
		}(i)
	}
	<-gate.entered // first batch is on the replica; the rest accumulate
	// Wait until every remaining request is enqueued, then release.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Requests < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate.gate)
	wg.Wait()
	s.Close()

	st := s.Stats()
	if st.MaxBatchSize < 2 {
		t.Errorf("max batch size %d: no coalescing happened across 8 concurrent requests", st.MaxBatchSize)
	}
	if st.Batches >= 8 {
		t.Errorf("%d batches for 8 requests: micro-batching is not reducing forward passes", st.Batches)
	}
	coalesced := false
	for _, p := range preds {
		if p.BatchSize > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Error("no prediction reports BatchSize > 1")
	}
}

// TestCloseDrains checks shutdown semantics: accepted requests are answered,
// new ones are refused with ErrDraining, and Close is idempotent.
func TestCloseDrains(t *testing.T) {
	gate := newGateLayer()
	s, err := New(Config{
		NewSparseReplica: gatedModel(gate),
		InputShape:       testShape,
		Replicas:         1,
		MaxBatch:         4,
		MaxWait:          -1,
		QueueDepth:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float32, 16)
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Predict(context.Background(), input)
		}(i)
	}
	<-gate.entered
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Requests < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !s.Ready() {
		t.Error("Ready() false before Close")
	}

	closed := make(chan struct{})
	go func() { defer close(closed); s.Close() }()
	// Close must wait for the gated batch; give it a moment to set draining.
	for s.Ready() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Predict(context.Background(), input); !errors.Is(err, ErrDraining) {
		t.Errorf("Predict during drain: got %v, want ErrDraining", err)
	}
	close(gate.gate)
	<-closed
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("accepted request %d answered with error %v, want drained answer", i, err)
		}
	}
	s.Close() // idempotent
	if s.Ready() {
		t.Error("Ready() true after Close")
	}
}

// BenchmarkServePredict measures steady-state predict throughput and
// allocations through the full queue → batcher → pool pipeline.
func BenchmarkServePredict(b *testing.B) {
	s, err := New(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	input := randInput(rng, s.InputLen())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Predict(ctx, input); err != nil {
				b.Fatal(err)
			}
		}
	})
}

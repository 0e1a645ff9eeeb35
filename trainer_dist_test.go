package dropback

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dropback/internal/core"
	"dropback/internal/data"
	"dropback/internal/dist"
	"dropback/internal/faults"
	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/tensor"
	"dropback/internal/xorshift"
)

// synthConvTrainVal builds a small deterministic image dataset (n samples of
// 1×6×6) for the convolutional equivalence runs, split 2:1.
func synthConvTrainVal(n, classes int, seed uint64) (train, val *Dataset) {
	x := tensor.New(n, 1, 6, 6)
	rng := xorshift.NewState64(seed)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	y := make([]int, n)
	for i := range y {
		y[i] = int(rng.Uint32n(uint32(classes)))
	}
	ds := &data.Dataset{X: x, Y: y, Classes: classes}
	return ds.Split(n * 2 / 3)
}

// distConfigs pre-binds one loopback listener per rank and returns a ready
// dist.Config per node — the in-process stand-in for N processes that know
// each other's addresses up front.
func distConfigs(t testing.TB, world int) []dist.Config {
	t.Helper()
	addrs := make([]string, world)
	lns := make([]net.Listener, world)
	for r := 0; r < world; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	cfgs := make([]dist.Config, world)
	for r := 0; r < world; r++ {
		cfgs[r] = dist.Config{
			Rank:           r,
			Peers:          append([]string(nil), addrs...),
			Listener:       lns[r],
			ConnectTimeout: 10 * time.Second,
			StepTimeout:    10 * time.Second,
		}
	}
	return cfgs
}

// distTrainN trains one model per node concurrently — each node a full TrainE
// call with its own model replica, sharing the (read-only) datasets — and
// returns every node's result and final parameter vector. mutate, if non-nil,
// adjusts each node's config before the run (the checkpoint tests hang a
// CheckpointSpec on node 0 only).
func distTrainN(t *testing.T, factory func(uint64) *Model, seed uint64, world int,
	cfg TrainConfig, train, val *Dataset, mutate func(rank int, c *TrainConfig)) ([]*Result, [][]float32) {
	t.Helper()
	dcfgs := distConfigs(t, world)
	results := make([]*Result, world)
	params := make([][]float32, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		nodeCfg := cfg
		nodeCfg.Dist = &dcfgs[r]
		if mutate != nil {
			mutate(r, &nodeCfg)
		}
		m := factory(seed)
		wg.Add(1)
		go func(r int, m *Model, c TrainConfig) {
			defer wg.Done()
			res, err := TrainE(m, train, val, c)
			if err != nil {
				errs[r] = err
				return
			}
			results[r] = res
			params[r] = m.Set.Snapshot()
		}(r, m, nodeCfg)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("node %d/%d: %v", r, world, err)
		}
	}
	return results, params
}

// assertDistMatchesSequential compares one node's training outcome against
// the sequential reference, byte for byte across every observable: final
// parameters, the loss/accuracy history, and DropBack's mask telemetry
// (swap history, retention, regeneration and compression counters, the
// accumulated-gradient score vector).
func assertDistMatchesSequential(t *testing.T, ctx string, ref *Result, refParams []float32, got *Result, gotParams []float32) {
	t.Helper()
	assertF32BitsEqual(t, ctx+": params", refParams, gotParams)
	assertHistoryBitsEqual(t, ctx+": history", ref.History, got.History)
	assertF32BitsEqual(t, ctx+": accumulated gradients", ref.AccumulatedGradients, got.AccumulatedGradients)
	if len(ref.SwapHistory) != len(got.SwapHistory) {
		t.Fatalf("%s: swap history length %d vs %d", ctx, len(ref.SwapHistory), len(got.SwapHistory))
	}
	for i := range ref.SwapHistory {
		if ref.SwapHistory[i] != got.SwapHistory[i] {
			t.Fatalf("%s: swap history[%d] %d vs %d", ctx, i, ref.SwapHistory[i], got.SwapHistory[i])
		}
	}
	if ref.Regenerations != got.Regenerations || ref.Compression != got.Compression {
		t.Fatalf("%s: regenerations %d/%d compression %v/%v", ctx,
			ref.Regenerations, got.Regenerations, ref.Compression, got.Compression)
	}
	if len(ref.Retention) != len(got.Retention) {
		t.Fatalf("%s: retention length %d vs %d", ctx, len(ref.Retention), len(got.Retention))
	}
	for i := range ref.Retention {
		if ref.Retention[i] != got.Retention[i] {
			t.Fatalf("%s: retention[%d] %+v vs %+v", ctx, i, ref.Retention[i], got.Retention[i])
		}
	}
}

// TestDistTrainerBitIdentical is the tentpole claim: multi-node training at
// N ∈ {2, 3} produces byte-identical parameters, history, and DropBack mask
// telemetry to the sequential trainer — across an MLP with dropout (the
// stochastic-stream case) and a conv/pool stack, for plain SGD and for
// DropBack both never-frozen and frozen mid-run (the O(k) wire phase).
func TestDistTrainerBitIdentical(t *testing.T) {
	mlpTrain, mlpVal := synthTrainVal(24, 12, 4, 7)
	convTrain, convVal := synthConvTrainVal(24, 4, 15)

	type modelCase struct {
		name       string
		factory    func(uint64) *Model
		train, val *Dataset
		budget     int
	}
	models := []modelCase{
		{"mlp", parTestDropoutMLP, mlpTrain, mlpVal, 60},
		{"conv", parTestConvModel, convTrain, convVal, 100},
	}
	type methodCase struct {
		name   string
		method Method
		freeze int
	}
	methods := []methodCase{
		{"sgd", MethodBaseline, 0},
		{"dropback", MethodDropBack, -1},
		{"dropback-frozen", MethodDropBack, 0}, // freezes after epoch 0: epoch 1+ exchanges O(k) frames
	}

	for _, mc := range models {
		for _, tc := range methods {
			t.Run(mc.name+"/"+tc.name, func(t *testing.T) {
				cfg := TrainConfig{Method: tc.method, Epochs: 2, BatchSize: 4, Seed: 11}
				if tc.method == MethodDropBack {
					cfg.Budget = mc.budget
					cfg.FreezeAfterEpoch = tc.freeze
				}
				ref, refParams := runEquivalence(t, mc.factory, 3, 1, cfg, mc.train, mc.val)
				for _, world := range []int{2, 3} {
					results, params := distTrainN(t, mc.factory, 3, world, cfg, mc.train, mc.val, nil)
					for r := 0; r < world; r++ {
						ctx := fmt.Sprintf("%s/%s/N=%d/node%d", mc.name, tc.name, world, r)
						assertDistMatchesSequential(t, ctx, ref, refParams, results[r], params[r])
					}
				}
			})
		}
	}
}

// TestDistLocalWorkersBitIdentical covers ranks that each split their rows
// across W local workers: N ∈ {2, 3} ranks × W ∈ {2, 3} workers per rank,
// plus ranks that run different worker counts, must match the sequential
// trainer byte for byte on every rank — an MLP with dropout and a conv/pool
// stack, DropBack live and frozen after epoch 0. Batch 2 at N = 3 keeps one
// rank idle every step (its dropout sample counts must still land right), and
// batch 3 at W = 3 leaves local workers empty.
func TestDistLocalWorkersBitIdentical(t *testing.T) {
	mlpTrain, mlpVal := synthTrainVal(24, 12, 4, 7)
	convTrain, convVal := synthConvTrainVal(24, 4, 15)
	models := []struct {
		name       string
		factory    func(uint64) *Model
		train, val *Dataset
		budget     int
	}{
		{"mlp", parTestDropoutMLP, mlpTrain, mlpVal, 60},
		{"conv", parTestConvModel, convTrain, convVal, 100},
	}
	// workers gives each rank's local worker count.
	layouts := []struct {
		world   int
		workers func(rank int) int
	}{
		{2, func(int) int { return 2 }},
		{2, func(int) int { return 3 }},
		{3, func(int) int { return 2 }},
		{3, func(int) int { return 3 }},
		{3, func(rank int) int { return 1 + rank }},
	}
	for _, mc := range models {
		for _, freeze := range []int{-1, 0} {
			for _, batch := range []int{4, 3, 2} {
				t.Run(fmt.Sprintf("%s/freeze=%d/batch=%d", mc.name, freeze, batch), func(t *testing.T) {
					cfg := TrainConfig{Method: MethodDropBack, Budget: mc.budget, FreezeAfterEpoch: freeze,
						Epochs: 2, BatchSize: batch, Seed: 11}
					ref, refParams := runEquivalence(t, mc.factory, 3, 1, cfg, mc.train, mc.val)
					for _, l := range layouts {
						results, params := distTrainN(t, mc.factory, 3, l.world, cfg, mc.train, mc.val, func(rank int, c *TrainConfig) {
							c.Workers = l.workers(rank)
						})
						for r := 0; r < l.world; r++ {
							ctx := fmt.Sprintf("N=%d/node%d/W=%d", l.world, r, l.workers(r))
							assertDistMatchesSequential(t, ctx, ref, refParams, results[r], params[r])
						}
					}
				})
			}
		}
	}
}

// TestDistStepMatchesSequential is the step-level microscope for ranks with
// local workers: the same batches through a 3-rank mesh at W = 2 per rank
// and through a sequential model must give bit-identical loss, accuracy and
// gradients on every rank. Batch sizes vary from 1 to 8, so ranks sit idle
// on some steps and compute on the next. Every rank, idle or busy, must end
// each step at the sequential dropout sample count.
func TestDistStepMatchesSequential(t *testing.T) {
	seq := parTestDropoutMLP(41)
	execs, ms, _ := distExecMesh(t, parTestDropoutMLP, 0, 3, 2)
	rng := xorshift.NewState64(5)
	for step, batch := range []int{1, 2, 5, 1, 8, 3, 2, 7} {
		x := tensor.New(batch, 12)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		y := make([]int, batch)
		for i := range y {
			y[i] = int(rng.Uint32n(4))
		}
		wantLoss, wantAcc := seq.Step(x, y)
		losses, accs := make([]float64, len(execs)), make([]float64, len(execs))
		var wg sync.WaitGroup
		for r, e := range execs {
			wg.Add(1)
			go func(r int, e *shardExecutor) {
				defer wg.Done()
				losses[r], accs[r] = e.Step(x, y)
			}(r, e)
		}
		wg.Wait()
		seqRNG := nn.CaptureLayerRNG(seq.Net)
		for r, e := range execs {
			if err := e.Err(); err != nil {
				t.Fatalf("step %d: node %d: %v", step, r, err)
			}
			ctx := fmt.Sprintf("step %d (batch %d) node %d", step, batch, r)
			assertF64BitsEqual(t, ctx+": loss", wantLoss, losses[r])
			assertF64BitsEqual(t, ctx+": acc", wantAcc, accs[r])
			sp, pp := seq.Set.Params(), ms[r].Set.Params()
			for i := range sp {
				assertF32BitsEqual(t, ctx+": grad "+sp[i].Name, sp[i].Grad.Data, pp[i].Grad.Data)
			}
			for name, st := range nn.CaptureLayerRNG(ms[r].Net) {
				if st != seqRNG[name] {
					t.Fatalf("%s: dropout %q at sample count %d, sequential at %d", ctx, name, st, seqRNG[name])
				}
			}
		}
	}
}

// TestDistBatchSmallerThanWorld covers the empty-shard path: a 3-node
// cluster on batch size 2 leaves rank 2 idle every step. Every node must
// still match the sequential run, and so must the checkpoint each node
// writes every epoch, dropout sample counts included.
func TestDistBatchSmallerThanWorld(t *testing.T) {
	train, val := synthTrainVal(24, 12, 4, 9)
	cfg := TrainConfig{Method: MethodBaseline, Epochs: 2, BatchSize: 2, Seed: 5}
	seqCfg := cfg
	seqDir := t.TempDir()
	seqCfg.Checkpoint = &CheckpointSpec{Dir: seqDir, Every: 1, Keep: -1}
	ref, refParams := runEquivalence(t, parTestDropoutMLP, 5, 1, seqCfg, train, val)
	dirs := make([]string, 3)
	results, params := distTrainN(t, parTestDropoutMLP, 5, 3, cfg, train, val, func(rank int, c *TrainConfig) {
		dirs[rank] = t.TempDir()
		c.Checkpoint = &CheckpointSpec{Dir: dirs[rank], Every: 1, Keep: -1}
	})
	seqFiles := readDirFiles(t, seqDir)
	for r := 0; r < 3; r++ {
		assertDistMatchesSequential(t, fmt.Sprintf("W>batch/node%d", r), ref, refParams, results[r], params[r])
		got := readDirFiles(t, dirs[r])
		if len(got) != len(seqFiles) {
			t.Fatalf("node %d wrote %d checkpoint files, sequential run %d", r, len(got), len(seqFiles))
		}
		for name, b := range got {
			if want, ok := seqFiles[name]; !ok || string(b) != string(want) {
				t.Fatalf("node %d: checkpoint %s differs from the sequential run's", r, name)
			}
		}
	}
}

// readDirFiles returns name → contents for every file in dir.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestDistCheckpointResumeAcrossWorldSizes proves the node count is an
// execution detail, not training state: a DropBack run checkpointed on node
// 0 of a 2-node cluster resumes on a 3-node cluster and finishes
// byte-identical to an uninterrupted sequential run — and the checkpoint
// files node 0 wrote are byte-identical to the sequential run's.
func TestDistCheckpointResumeAcrossWorldSizes(t *testing.T) {
	train, val := synthTrainVal(24, 12, 4, 17)
	// FreezeAfterEpoch −1 keeps the score vector live and comparable (the
	// same reasoning as the parallel resume test).
	base := TrainConfig{Method: MethodDropBack, Budget: 80, Epochs: 4, BatchSize: 4, Seed: 23, FreezeAfterEpoch: -1}

	// Sequential reference: the uninterrupted run, plus its checkpoints.
	seqDir := t.TempDir()
	seqCfg := base
	seqCfg.Checkpoint = &CheckpointSpec{Dir: seqDir, Every: 1, Keep: -1}
	mRef := parTestDropoutMLP(7)
	ref, err := TrainE(mRef, train, val, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	refParams := mRef.Set.Snapshot()

	// First half on 2 nodes, checkpointing on node 0 only.
	distDir := t.TempDir()
	firstHalf := base
	firstHalf.Epochs = 2
	distTrainN(t, parTestDropoutMLP, 7, 2, firstHalf, train, val, func(rank int, c *TrainConfig) {
		if rank == 0 {
			c.Checkpoint = &CheckpointSpec{Dir: distDir, Every: 1, Keep: -1}
		}
	})

	// Node 0's checkpoints must be byte-identical to the sequential run's —
	// a checkpoint is node-count-free, which is what makes cross-world
	// resume possible at all.
	seqFiles := readDirFiles(t, seqDir)
	for name, got := range readDirFiles(t, distDir) {
		want, ok := seqFiles[name]
		if !ok {
			t.Fatalf("dist run wrote %s, sequential run did not", name)
		}
		if string(got) != string(want) {
			t.Fatalf("checkpoint %s differs between dist node 0 and the sequential run", name)
		}
	}

	// Second half on 3 nodes: every node resumes from its own copy of the
	// same checkpoint (in production, the operator distributes the file;
	// the handshake's StartStep check catches nodes that loaded different
	// ones).
	copyDir := func(src string) string {
		dst := t.TempDir()
		for name, b := range readDirFiles(t, src) {
			if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	results, params := distTrainN(t, parTestDropoutMLP, 7, 3, base, train, val, func(rank int, c *TrainConfig) {
		c.Checkpoint = &CheckpointSpec{Dir: copyDir(distDir), Resume: true, Keep: -1}
	})
	// Swap history is per-run telemetry (checkpoints carry only the bounded
	// summary), so the resumed comparison covers params, the full epoch
	// history, and the score vector — as the in-process resume test does.
	for r := 0; r < 3; r++ {
		ctx := fmt.Sprintf("resume/node%d", r)
		assertF32BitsEqual(t, ctx+": params", refParams, params[r])
		assertHistoryBitsEqual(t, ctx+": history", ref.History, results[r].History)
		assertF32BitsEqual(t, ctx+": accumulated gradients", ref.AccumulatedGradients, results[r].AccumulatedGradients)
	}
}

// distExecMesh builds a world-node executor mesh directly (no trainer), one
// model and optional DropBack constraint per node and the given number of
// local workers on each, for step-level tests that need exact control over
// steps and byte counters.
func distExecMesh(t testing.TB, factory func(uint64) *Model, budget, world, workers int) ([]*shardExecutor, []*Model, []*core.DropBack) {
	t.Helper()
	dcfgs := distConfigs(t, world)
	execs := make([]*shardExecutor, world)
	ms := make([]*Model, world)
	dbs := make([]*core.DropBack, world)
	errs := make([]error, world)
	hs := dist.Handshake{Seed: 1, Method: uint32(MethodDropBack), Budget: uint64(budget), FreezeAfter: 0, Batch: 8}
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		ms[r] = factory(41)
		if budget > 0 {
			dbs[r] = core.New(ms[r].Set, core.Config{Budget: budget, FreezeAfterEpoch: 0})
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e, err := newShardExecutor(ms[r], workers, nil)
			if err == nil {
				err = e.join(dbs[r], dcfgs[r], hs)
			}
			execs[r], errs[r] = e, err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("node %d executor: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, e := range execs {
			if e != nil {
				e.Close()
			}
		}
	})
	return execs, ms, dbs
}

// stepAll runs one lockstep training step on every executor.
func stepAll(execs []*shardExecutor, x *tensor.Tensor, y []int) {
	var wg sync.WaitGroup
	for _, e := range execs {
		wg.Add(1)
		go func(e *shardExecutor) {
			defer wg.Done()
			e.Step(x, y)
		}(e)
	}
	wg.Wait()
}

// TestDistWireBytesMatchAnalyticalExactly is the measured half of the wire
// claims: per-step socket-level byte deltas must equal the analytical frame
// sizes exactly. Before DropBack freezes, the rank chain at N = 2 has each
// rank send and receive one partial frame of the dense parameter count's
// running sums (PartialFrameBytes), whatever the shard sizes. After, the
// frame is StepFrameBytes with exactly the tracked budget k per row. Not
// "about k": equal, byte for byte, which also proves no index side-band
// crosses the wire in the frozen phase. Local workers split a rank's rows
// without changing what it sends, so the bytes are the same at W = 2 per
// rank.
func TestDistWireBytesMatchAnalyticalExactly(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkDistWireBytes(t, workers)
		})
	}
}

func checkDistWireBytes(t *testing.T, workers int) {
	const budget = 50
	execs, ms, dbs := distExecMesh(t, parTestMLP, budget, 2, workers)
	total := ms[0].Set.Total()
	if budget >= total {
		t.Fatalf("budget %d must be below the parameter total %d for the claim to bite", budget, total)
	}

	const batch = 8
	rng := xorshift.NewState64(77)
	makeBatch := func() (*tensor.Tensor, []int) {
		x := tensor.New(batch, 12)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		y := make([]int, batch)
		for i := range y {
			y[i] = int(rng.Uint32n(4))
		}
		return x, y
	}
	ranges := shardRangesInto(make([]shardRange, 2), batch)
	sgds := []*optim.SGD{optim.NewSGD(0.1), optim.NewSGD(0.1)}

	checkStep := func(phase string, frozen bool) {
		sentBefore := []int64{execs[0].cluster.BytesSent(), execs[1].cluster.BytesSent()}
		recvBefore := []int64{execs[0].cluster.BytesReceived(), execs[1].cluster.BytesReceived()}
		x, y := makeBatch()
		stepAll(execs, x, y)
		for r, e := range execs {
			if err := e.Err(); err != nil {
				t.Fatalf("%s: node %d: %v", phase, r, err)
			}
			// A partial frame each way while dense, else step frames.
			wantSent, wantRecv := int64(dist.PartialFrameBytes(total)), int64(dist.PartialFrameBytes(total))
			if frozen {
				wantSent = int64(dist.StepFrameBytes(ranges[r].Hi-ranges[r].Lo, budget))
				wantRecv = int64(dist.StepFrameBytes(ranges[1-r].Hi-ranges[1-r].Lo, budget))
			}
			if d := e.cluster.BytesSent() - sentBefore[r]; d != wantSent {
				t.Fatalf("%s: node %d sent %d bytes this step, want %d", phase, r, d, wantSent)
			}
			if d := e.cluster.BytesReceived() - recvBefore[r]; d != wantRecv {
				t.Fatalf("%s: node %d received %d bytes this step, want %d", phase, r, d, wantRecv)
			}
		}
		// Lockstep optimizer + constraint, as the trainer would run them.
		for r := range execs {
			sgds[r].Step(ms[r].Set)
			dbs[r].Apply()
		}
	}

	// Dense phase: every gradient is a bid for the tracked set, so a full
	// row of running sums crosses each hop of the chain.
	checkStep("dense step 1", false)
	checkStep("dense step 2", false)

	// Freeze on both nodes (the trainer does this at the epoch boundary on
	// every node identically), then the frame drops to k values per row.
	for _, db := range dbs {
		db.MaybeFreezeAtEpochEnd(0)
	}
	if !dbs[0].Frozen() || !dbs[1].Frozen() {
		t.Fatal("constraints did not freeze")
	}
	checkStep("frozen step 1", true)
	checkStep("frozen step 2", true)

	// The frozen frame must actually be smaller — the point of the paper's
	// freeze for communication: k × 4 bytes per row instead of total × 4.
	if dist.StepFrameBytes(4, budget) >= dist.StepFrameBytes(4, total) {
		t.Fatal("frozen frames are not smaller than dense frames")
	}

	// And the two nodes must still agree bit-for-bit after mixed phases.
	assertF32BitsEqual(t, "post-freeze params", ms[0].Set.Snapshot(), ms[1].Set.Snapshot())
}

// TestDistPeerDisconnectAbortsStep kills node 1's connection a few bytes
// into the first exchange (the handshake is exempt — the fault wraps
// post-handshake). Both nodes must fail the run with a descriptive error,
// and — the no-torn-updates guarantee — both models' weights must be exactly
// their initial values: the optimizer never ran.
func TestDistPeerDisconnectAbortsStep(t *testing.T) {
	train, val := synthTrainVal(24, 12, 4, 13)
	cfg := TrainConfig{Method: MethodBaseline, Epochs: 1, BatchSize: 4, Seed: 3}
	dcfgs := distConfigs(t, 2)
	dcfgs[1].WrapConn = func(rank int, c net.Conn) net.Conn {
		return &faults.CutConn{Conn: c, N: 64}
	}

	initial := parTestMLP(3).Set.Snapshot()
	ms := []*Model{parTestMLP(3), parTestMLP(3)}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		nodeCfg := cfg
		nodeCfg.Dist = &dcfgs[r]
		wg.Add(1)
		go func(r int, c TrainConfig) {
			defer wg.Done()
			_, errs[r] = TrainE(ms[r], train, val, c)
		}(r, nodeCfg)
	}
	wg.Wait()

	for r, err := range errs {
		if err == nil {
			t.Fatalf("node %d trained through a dead peer", r)
		}
		if !strings.Contains(err.Error(), "dist training step") {
			t.Fatalf("node %d: error does not identify the failing step: %v", r, err)
		}
	}
	if !errors.Is(errs[1], faults.ErrInjected) {
		t.Fatalf("cut node's error lost the cause: %v", errs[1])
	}
	if !strings.Contains(errs[0].Error(), "peer 1") {
		t.Fatalf("healthy node's error does not name the dead peer: %v", errs[0])
	}
	for r, m := range ms {
		assertF32BitsEqual(t, fmt.Sprintf("node %d weights after abort", r), initial, m.Set.Snapshot())
	}
}

// TestDistStalledPeerTripsStepDeadline wraps node 1's link in a StallConn
// that blocks every step write: node 0 must fail its step within its
// StepTimeout (a stalled peer must not hang the fold), and node 1 must also
// fail once released rather than train on alone.
func TestDistStalledPeerTripsStepDeadline(t *testing.T) {
	train, val := synthTrainVal(24, 12, 4, 19)
	cfg := TrainConfig{Method: MethodBaseline, Epochs: 1, BatchSize: 4, Seed: 3}
	release := make(chan struct{})
	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	defer unstall()
	dcfgs := distConfigs(t, 2)
	dcfgs[0].StepTimeout = 300 * time.Millisecond
	dcfgs[1].WrapConn = func(rank int, c net.Conn) net.Conn {
		return &faults.StallConn{Conn: c, N: 0, Release: release}
	}

	node1Done := make(chan error, 1)
	go func() {
		nodeCfg := cfg
		nodeCfg.Dist = &dcfgs[1]
		_, err := TrainE(parTestMLP(3), train, val, nodeCfg)
		node1Done <- err
	}()

	nodeCfg := cfg
	nodeCfg.Dist = &dcfgs[0]
	start := time.Now()
	_, err := TrainE(parTestMLP(3), train, val, nodeCfg)
	if err == nil {
		t.Fatal("node 0 trained through a stalled peer")
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("stalled peer took %v to surface; StepTimeout was 300ms", elapsed)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("node 0's error is not a timeout: %v", err)
	}

	unstall() // free node 1's blocked writer; its run must now fail too
	select {
	case err := <-node1Done:
		if err == nil {
			t.Fatal("stalled node trained on alone after its peer left")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stalled node never finished")
	}
}

// TestDistConfigValidation pins the Dist-related Validate rules: the
// features whose semantics a multi-node run cannot preserve are refused up
// front with specific messages.
func TestDistConfigValidation(t *testing.T) {
	train, val := synthTrainVal(18, 12, 4, 3)
	good := dist.Config{Rank: 0, Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}}
	cases := []struct {
		name   string
		mutate func(*TrainConfig)
		want   string
	}{
		{"bad dist config", func(c *TrainConfig) { c.Dist = &dist.Config{Rank: 5, Peers: []string{"a:1", "b:2"}} }, "rank"},
		{"sparse train", func(c *TrainConfig) { c.Method = MethodDropBack; c.Budget = 10; c.SparseTrain = true }, "SparseTrain"},
		{"recovery", func(c *TrainConfig) { c.MaxRecoveryRetries = 2 }, "recovery"},
		{"grad hook", func(c *TrainConfig) { c.GradHook = func(int, *nn.ParamSet) {} }, "GradHook"},
		{"method", func(c *TrainConfig) { c.Method = MethodMagnitude; c.PruneFraction = 0.5 }, "Method"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := TrainConfig{Method: MethodBaseline, Epochs: 1, BatchSize: 3, Seed: 1}
			cfg.Dist = &good
			tc.mutate(&cfg)
			_, err := TrainE(parTestMLP(1), train, val, cfg)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// BenchmarkDistTrainStep measures one multi-node training step over a
// 2-node loopback mesh (DropBack, frozen — the steady-state O(k) phase) and
// reports true bytes-on-wire per step alongside the timing.
func BenchmarkDistTrainStep(b *testing.B) { benchDistTrainStep(b, true) }

// BenchmarkDistTrainStepLive is the same step before DropBack freezes: the
// dense phase, whose gradients cross as one partial frame of running sums
// per hop of the rank chain.
func BenchmarkDistTrainStepLive(b *testing.B) { benchDistTrainStep(b, false) }

func benchDistTrainStep(b *testing.B, frozen bool) {
	const budget = 50
	execs, ms, dbs := distExecMesh(b, parTestMLP, budget, 2, 1)
	const batch = 8
	x := tensor.New(batch, 12)
	rng := xorshift.NewState64(7)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	y := make([]int, batch)
	for i := range y {
		y[i] = int(rng.Uint32n(4))
	}
	sgd := optim.NewSGD(0.1)
	if frozen {
		for _, db := range dbs {
			db.Freeze()
		}
	}
	// Rank 1 steps in lockstep until rank 0's side is closed.
	stop := make(chan struct{})
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			execs[1].Step(x, y)
			if execs[1].Err() != nil {
				return
			}
			dbs[1].Apply()
		}
	}()

	sentStart := execs[0].cluster.BytesSent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execs[0].Step(x, y)
		if err := execs[0].Err(); err != nil {
			b.Fatal(err)
		}
		sgd.Step(ms[0].Set)
		dbs[0].Apply()
	}
	b.StopTimer()
	b.ReportMetric(float64(execs[0].cluster.BytesSent()-sentStart)/float64(b.N), "wire-B/step")
	execs[0].Close() // unblocks rank 1's pending exchange
	close(stop)
	<-peerDone
}

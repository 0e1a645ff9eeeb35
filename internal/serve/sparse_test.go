package serve

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dropback/internal/nn"
	"dropback/internal/sparse"
)

// TestSparseServerMatchesDense runs the same traffic through a dense pool
// (Artifact.Apply per replica) and a sparse pool (one shared compiled plan)
// and requires bit-identical predictions — the serving-layer restatement of
// the sparse.Plan bit-identity contract.
func TestSparseServerMatchesDense(t *testing.T) {
	trained, _ := newTestModel(7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < trained.Set.Total(); i++ {
		if rng.Float64() < 0.1 {
			trained.Set.Set(i, rng.Float32()-0.5)
		}
	}
	art := sparse.Compress(trained)
	if art.StoredWeights() == 0 {
		t.Fatal("setup: empty artifact")
	}

	denseCfg := testConfig()
	denseCfg.NewSparseReplica = ModelReplicas(func() (*nn.Model, error) {
		m, _ := newTestModel(7)
		return m, art.Apply(m)
	})
	dense, err := New(denseCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()

	proto, _ := newTestModel(7)
	plan, err := sparse.Compile(proto, art)
	if err != nil {
		t.Fatal(err)
	}
	sparseCfg := testConfig()
	sparseCfg.NewSparseReplica = func() (Replica, error) { return sparse.NewExecutor(plan), nil }
	sp, err := New(sparseCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	for i := 0; i < 32; i++ {
		in := randInput(rng, 16)
		want, err := dense.Predict(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.Predict(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class {
			t.Fatalf("input %d: sparse class %d, dense class %d", i, got.Class, want.Class)
		}
		for j := range want.Probs {
			if math.Float32bits(got.Probs[j]) != math.Float32bits(want.Probs[j]) {
				t.Fatalf("input %d: prob[%d] %g vs dense %g", i, j, got.Probs[j], want.Probs[j])
			}
		}
	}

	dst, sst := dense.Stats(), sp.Stats()
	if dst.SharedWeightBytes != 0 || dst.WeightBytesPerReplica != 4*trained.Set.Total() {
		t.Errorf("dense stats: shared=%d per-replica=%d, want 0/%d",
			dst.SharedWeightBytes, dst.WeightBytesPerReplica, 4*trained.Set.Total())
	}
	if sst.SharedWeightBytes != plan.WeightBytes() || sst.WeightBytesPerReplica != 0 {
		t.Errorf("sparse stats: shared=%d per-replica=%d, want %d/0",
			sst.SharedWeightBytes, sst.WeightBytesPerReplica, plan.WeightBytes())
	}
	if dst.PoolBuild <= 0 || sst.PoolBuild <= 0 {
		t.Errorf("pool build durations not recorded: dense=%v sparse=%v", dst.PoolBuild, sst.PoolBuild)
	}
}

package energy_test

import (
	"math/rand"
	"testing"

	"dropback/internal/energy"
	"dropback/internal/models"
	"dropback/internal/sparse"
	"dropback/internal/tensor"
)

// TestMeasuredSparseTrafficMatchesAnalytical checks that the sparse-native
// executor's weight-traffic counters agree with the analytical model: after
// one forward pass they must equal the tracked/regenerated split
// InferenceTraffic predicts for the model's (n, k). The executor models its
// traffic from the compiled plan (one read per stored weight and one
// regeneration per other weight per pass) rather than counting inside the
// kernels, so this pins the plan's (n, k) and the per-pass multiplicity to
// the artifact's, not the kernels' access pattern.
func TestMeasuredSparseTrafficMatchesAnalytical(t *testing.T) {
	trained := models.MNIST100100(1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < trained.Set.Total(); i++ {
		if rng.Float64() < 0.05 {
			trained.Set.Set(i, rng.Float32()-0.5)
		}
	}
	art := sparse.Compress(trained)
	plan, err := sparse.Compile(models.MNIST100100(1), art)
	if err != nil {
		t.Fatal(err)
	}
	ex := sparse.NewExecutor(plan)

	x := tensor.New(3, 784)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	ex.Infer(x)

	n, k := art.TotalParams, art.StoredWeights()
	want := energy.InferenceTraffic(n, k).DropBack
	got := ex.WeightTraffic()
	if got.DRAMReads != want.DRAMReads || got.Regenerations != want.Regenerations {
		t.Fatalf("measured traffic (reads %d, regens %d) != analytical (reads %d, regens %d) for n=%d k=%d",
			got.DRAMReads, got.Regenerations, want.DRAMReads, want.Regenerations, n, k)
	}

	// The split must also agree with the training-side Compare report, whose
	// DropBack column models the same k tracked / n−k regenerated partition
	// at per-step multiplicity (2 reads per tracked weight, 2 regenerations
	// per untracked weight, plus k writes).
	rep := energy.Compare(n, k, 1)
	if rep.DropBack.DRAMReads != 2*want.DRAMReads || rep.DropBack.Regenerations != 2*want.Regenerations ||
		rep.DropBack.DRAMWrites != want.DRAMReads {
		t.Fatalf("Compare(n=%d, k=%d) split (reads %d, regens %d) inconsistent with inference split (reads %d, regens %d)",
			n, k, rep.DropBack.DRAMReads, rep.DropBack.Regenerations, want.DRAMReads, want.Regenerations)
	}

	// Counters accumulate across passes and reset cleanly.
	ex.Infer(x)
	if got2 := ex.WeightTraffic(); got2.DRAMReads != 2*want.DRAMReads || got2.Regenerations != 2*want.Regenerations {
		t.Fatalf("second pass: traffic (reads %d, regens %d), want exactly double the single-pass counts",
			got2.DRAMReads, got2.Regenerations)
	}
	ex.ResetTraffic()
	if got3 := ex.WeightTraffic(); got3.DRAMReads != 0 || got3.Regenerations != 0 {
		t.Fatalf("ResetTraffic left (reads %d, regens %d)", got3.DRAMReads, got3.Regenerations)
	}
}

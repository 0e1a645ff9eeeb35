package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/xorshift"
)

// fillGrads writes the same pseudo-random gradient stream into every
// parameter of the set, keyed by step so each step differs.
func fillGrads(set *nn.ParamSet, step int) {
	g := 0
	for _, p := range set.Params() {
		for e := range p.Grad.Data {
			p.Grad.Data[e] = xorshift.IndexedUniform(uint64(1000+step), uint64(g))
			g++
		}
	}
}

// syncTrackedGrads simulates a perfect sparse backward pass: the tracked
// gradients are the dense gradients at the tracked indices.
func syncTrackedGrads(eng *DropBack, set *nn.ParamSet) {
	for _, p := range set.Params() {
		t := p.CSR
		if t == nil || t.TGrad == nil {
			continue
		}
		for k, fi := range t.Idx {
			t.TGrad[k] = p.Grad.Data[fi]
		}
	}
}

func assertSetsBitEqual(t *testing.T, ctx string, a, b *nn.ParamSet) {
	t.Helper()
	for i, p := range a.Params() {
		q := b.Params()[i]
		for e := range p.Value.Data {
			if math.Float32bits(p.Value.Data[e]) != math.Float32bits(q.Value.Data[e]) {
				t.Fatalf("%s: param %s[%d] = %x, want %x", ctx, p.Name, e,
					math.Float32bits(q.Value.Data[e]), math.Float32bits(p.Value.Data[e]))
			}
		}
	}
}

// engineCase is one engine configuration checked against the oracle.
type engineCase struct {
	name string
	cfg  Config
	csr  bool // fc1.W and fc2.W on CSR storage
}

// ablations are the four Config switches that exist on dense storage only.
var ablations = []struct {
	name string
	set  func(*Config)
}{
	{"dry-run", func(c *Config) { c.DryRun = true }},
	{"zero-untracked", func(c *Config) { c.ZeroUntracked = true }},
	{"select-by-magnitude", func(c *Config) { c.SelectByMagnitude = true }},
	{"per-layer-budget", func(c *Config) { c.PerLayerBudget = true }},
}

// engineCases sweeps freeze ∈ {never, 0, 1} over both storages and over
// each ablation, which runs on dense storage only.
func engineCases(budget int) []engineCase {
	var out []engineCase
	for _, freeze := range []int{-1, 0, 1} {
		cfg := Config{Budget: budget, FreezeAfterEpoch: freeze}
		tag := fmt.Sprintf("k=%d/freeze=%d/", budget, freeze)
		out = append(out, engineCase{tag + "dense", cfg, false}, engineCase{tag + "csr", cfg, true})
		for _, a := range ablations {
			c := cfg
			a.set(&c)
			out = append(out, engineCase{tag + a.name, c, false})
		}
	}
	return out
}

func newOracleFor(c engineCase) (*denseOracle, *nn.ParamSet) {
	set, _, _ := makeSet()
	return newDenseOracle(set, c.cfg), set
}

// newEngine builds the engine for c over a fresh set, virtualizing both
// weight matrices when c.csr is set.
func newEngine(t *testing.T, c engineCase) (*DropBack, *nn.ParamSet) {
	t.Helper()
	set, fc1, fc2 := makeSet()
	eng := New(set, c.cfg)
	if c.csr {
		for _, l := range []*nn.Linear{fc1, fc2} {
			if err := eng.Virtualize(l.W); err != nil {
				t.Fatal(err)
			}
		}
	}
	return eng, set
}

// stepLockstep feeds one step's gradients to the oracle pipeline (sgd.Step
// then Apply) and to the engine (Update), and requires equal swap counts.
func stepLockstep(t *testing.T, ctx string, step int, sgd *optim.SGD, o *denseOracle, oset *nn.ParamSet, eng *DropBack, eset *nn.ParamSet) {
	t.Helper()
	fillGrads(oset, step)
	fillGrads(eset, step)
	syncTrackedGrads(eng, eset)
	sgd.Step(oset)
	want := o.Apply()
	if got := eng.Update(sgd); got != want {
		t.Fatalf("%s step %d: swaps %d, oracle %d", ctx, step, got, want)
	}
}

// assertEngineMatchesOracle compares the weights and everything State
// carries; withScores adds the live score vector, which is telemetry and
// not part of resumable state.
func assertEngineMatchesOracle(t *testing.T, ctx string, eng *DropBack, eset *nn.ParamSet, o *denseOracle, oset *nn.ParamSet, withScores bool) {
	t.Helper()
	eng.Densify()
	assertSetsBitEqual(t, ctx, oset, eset)
	if eng.Frozen() != o.frozen {
		t.Fatalf("%s: frozen %v, oracle %v", ctx, eng.Frozen(), o.frozen)
	}
	want := maskIndices(o.mask)
	if eng.TrackedCount() != len(want) {
		t.Fatalf("%s: tracked count %d, oracle %d", ctx, eng.TrackedCount(), len(want))
	}
	em := eng.Mask()
	for g := range o.mask {
		if em[g] != o.mask[g] {
			t.Fatalf("%s: mask[%d] = %v, oracle %v", ctx, g, em[g], o.mask[g])
		}
	}
	if eng.Regenerations() != o.regenerations || eng.TrackedWrites() != o.trackedWrites {
		t.Fatalf("%s: counters (%d,%d), oracle (%d,%d)", ctx,
			eng.Regenerations(), eng.TrackedWrites(), o.regenerations, o.trackedWrites)
	}
	if eng.Swaps() != o.swaps {
		t.Fatalf("%s: swap summary %+v, oracle %+v", ctx, eng.Swaps(), o.swaps)
	}
	if !withScores {
		return
	}
	for g, s := range eng.AccumulatedGradients() {
		if math.Float32bits(s) != math.Float32bits(o.scores[g]) {
			t.Fatalf("%s: scores[%d] = %x, oracle %x", ctx, g, math.Float32bits(s), math.Float32bits(o.scores[g]))
		}
	}
}

// TestTrackedTrainerMatchesDensePipeline drives the engine — on dense and
// on CSR storage, and under each ablation — and the dense oracle pipeline
// with identical gradient streams through fresh selection, freezing, and
// post-freeze steps, asserting bit-equal values and identical masks,
// counters, scores and swap telemetry at every step.
func TestTrackedTrainerMatchesDensePipeline(t *testing.T) {
	for _, budget := range []int{5, 7, 20, 53} {
		for _, c := range engineCases(budget) {
			o, oset := newOracleFor(c)
			eng, eset := newEngine(t, c)
			sgd := optim.NewSGD(0)
			step := 0
			for epoch := 0; epoch < 4; epoch++ {
				sgd.LR = float32(0.25) / float32(epoch+1)
				for s := 0; s < 4; s++ {
					stepLockstep(t, c.name, step, sgd, o, oset, eng, eset)
					assertEngineMatchesOracle(t, fmt.Sprintf("%s step %d", c.name, step), eng, eset, o, oset, true)
					step++
				}
				o.MaybeFreezeAtEpochEnd(epoch)
				eng.EndEpoch(epoch)
				assertEngineMatchesOracle(t, fmt.Sprintf("%s epoch %d end", c.name, epoch), eng, eset, o, oset, true)
			}
		}
	}
}

// TestDevirtualizeCarriesOnDense moves the CSR tensors back to dense
// storage mid-run — at step 2, before any freeze, and at step 7, after the
// freeze-at-0 and freeze-at-1 cases froze — and requires the engine to
// continue in lockstep with the dense oracle, with no parameter left on
// CSR storage.
func TestDevirtualizeCarriesOnDense(t *testing.T) {
	for _, c := range engineCases(9) {
		if !c.csr {
			continue
		}
		for _, at := range []int{2, 7} {
			ctx := fmt.Sprintf("%s/devirtualize-at=%d", c.name, at)
			o, oset := newOracleFor(c)
			eng, eset := newEngine(t, c)
			sgd := optim.NewSGD(0.3)
			for step := 0; step < 12; step++ {
				if step == at {
					eng.Devirtualize()
					for _, p := range eset.Params() {
						if p.CSR != nil {
							t.Fatalf("%s: %s still on CSR storage", ctx, p.Name)
						}
					}
					assertEngineMatchesOracle(t, ctx, eng, eset, o, oset, true)
				}
				stepLockstep(t, ctx, step, sgd, o, oset, eng, eset)
				if step%3 == 2 {
					o.MaybeFreezeAtEpochEnd(step / 3)
					eng.EndEpoch(step / 3)
				}
			}
			assertEngineMatchesOracle(t, ctx+" end", eng, eset, o, oset, true)
		}
	}
}

// TestTrackedTrainerCrossRestore proves State is storage-independent: the
// oracle's state resumes a fresh engine, and the engine's state resumes a
// fresh oracle, both continuing bit-identically — on either side of the
// freeze, for both storages and each ablation.
func TestTrackedTrainerCrossRestore(t *testing.T) {
	for _, c := range engineCases(9) {
		o, oset := newOracleFor(c)
		eng, eset := newEngine(t, c)
		sgd := optim.NewSGD(0.3)
		// One three-step epoch, so freeze 0 falls before the restore and
		// freeze 1 after it.
		for step := 0; step < 3; step++ {
			stepLockstep(t, c.name, step, sgd, o, oset, eng, eset)
		}
		o.MaybeFreezeAtEpochEnd(0)
		eng.EndEpoch(0)
		assertEngineMatchesOracle(t, c.name+" pre-restore", eng, eset, o, oset, true)

		// Oracle -> engine: a fresh engine over the oracle's values and state.
		eng2, eset2 := newEngine(t, c)
		eset2.Restore(oset.Snapshot())
		if err := eng2.RestoreState(o.State()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertEngineMatchesOracle(t, c.name+" oracle->engine", eng2, eset2, o, oset, false)

		// Engine -> oracle: a fresh oracle over the engine's values and state.
		o2, oset2 := newOracleFor(c)
		oset2.Restore(eset.Snapshot())
		if err := o2.RestoreState(eng.State()); err != nil {
			t.Fatal(err)
		}

		// Continue both pairs in lockstep for three more epochs.
		for step := 3; step < 12; step++ {
			stepLockstep(t, c.name+" resumed engine", step, sgd, o, oset, eng2, eset2)
			stepLockstep(t, c.name+" resumed oracle", step, sgd, o2, oset2, eng, eset)
			if step%3 == 2 {
				o.MaybeFreezeAtEpochEnd(step / 3)
				eng2.EndEpoch(step / 3)
				o2.MaybeFreezeAtEpochEnd(step / 3)
				eng.EndEpoch(step / 3)
			}
		}
		assertEngineMatchesOracle(t, c.name+" resumed engine", eng2, eset2, o, oset, false)
		assertEngineMatchesOracle(t, c.name+" resumed oracle", eng, eset, o2, oset2, false)
	}
}

// TestFrozenDenseStepMatchesOracle covers the frozen entries into the
// tracked-only dense step, on dense storage and under each ablation. The
// weights are perturbed away from init and frozen before the first step,
// so the freeze itself must reset the untracked weights before every
// frozen step may skip them; a twin engine restored from that frozen state
// must do the same; and Apply after the freeze, whose caller stepped every
// weight, must reset in full. Weights, masks, scores and counters must
// match the oracle bit for bit throughout.
func TestFrozenDenseStepMatchesOracle(t *testing.T) {
	for _, c := range engineCases(11) {
		if c.csr {
			continue // Virtualize seeds CSR storage from the values it sees
		}
		o, oset := newOracleFor(c)
		eng, eset := newEngine(t, c)
		perturbAll(oset, 0.01)
		perturbAll(eset, 0.01)
		o.Freeze()
		eng.Freeze()
		assertEngineMatchesOracle(t, c.name+" frozen before the first step", eng, eset, o, oset, true)

		o2, oset2 := newOracleFor(c)
		eng2, eset2 := newEngine(t, c)
		oset2.Restore(eset.Snapshot())
		eset2.Restore(eset.Snapshot())
		if err := o2.RestoreState(eng.State()); err != nil {
			t.Fatal(err)
		}
		if err := eng2.RestoreState(eng.State()); err != nil {
			t.Fatal(err)
		}

		sgd := optim.NewSGD(0.3)
		for step := 0; step < 9; step++ {
			if step >= 3 && step < 6 {
				for _, s := range []struct {
					o    *denseOracle
					oset *nn.ParamSet
					e    *DropBack
					eset *nn.ParamSet
				}{{o, oset, eng, eset}, {o2, oset2, eng2, eset2}} {
					fillGrads(s.oset, step)
					fillGrads(s.eset, step)
					sgd.Step(s.oset)
					sgd.Step(s.eset)
					s.o.Apply()
					s.e.Apply()
				}
			} else {
				stepLockstep(t, c.name, step, sgd, o, oset, eng, eset)
				stepLockstep(t, c.name+" restored", step, sgd, o2, oset2, eng2, eset2)
			}
			assertEngineMatchesOracle(t, fmt.Sprintf("%s step %d", c.name, step), eng, eset, o, oset, true)
			assertEngineMatchesOracle(t, fmt.Sprintf("%s restored step %d", c.name, step), eng2, eset2, o2, oset2, false)
		}
	}
}

// TestFreezeBeforeFirstStepStoragesAgree freezes a dense-storage engine and
// a CSR-storage twin before any step, on weights perturbed away from init.
// Freezing settles both storages at once: after Densify, each model must
// hold the tracked weights as perturbed and W_0 in every gap, byte for byte
// the same, with no frozen step needed to reconcile them.
func TestFreezeBeforeFirstStepStoragesAgree(t *testing.T) {
	cfg := Config{Budget: 11, FreezeAfterEpoch: -1}
	dense, dset := newEngine(t, engineCase{name: "dense", cfg: cfg})
	perturbAll(dset, 0.01)
	cset, fc1, fc2 := makeSet()
	perturbAll(cset, 0.01) // before Virtualize, so the CSR tracks every perturbed weight
	csr := New(cset, cfg)
	for _, l := range []*nn.Linear{fc1, fc2} {
		if err := csr.Virtualize(l.W); err != nil {
			t.Fatal(err)
		}
	}
	dense.Freeze()
	csr.Freeze()
	dense.Densify()
	csr.Densify()
	assertIndicesEqual(t, "frozen selection", csr.AppendTrackedIndices(nil), dense.AppendTrackedIndices(nil))
	assertSetsBitEqual(t, "dense vs CSR storage after Freeze+Densify", dset, cset)
}

// TestCSRFreezeBeforeFirstStepMatchesOracle: a CSR tensor frozen before any
// step scores its tracked values straight from the CSR, whose gaps hold
// W_0 exactly. Scores and selection must equal the oracle's dense scoring
// of the same perturbed weights, and the frozen steps that follow must
// match it bit for bit.
func TestCSRFreezeBeforeFirstStepMatchesOracle(t *testing.T) {
	c := engineCase{name: "csr", cfg: Config{Budget: 11, FreezeAfterEpoch: -1}, csr: true}
	o, oset := newOracleFor(c)
	perturbAll(oset, 0.01)
	set, fc1, fc2 := makeSet()
	perturbAll(set, 0.01) // before Virtualize, so the CSR tracks every perturbed weight
	eng := New(set, c.cfg)
	for _, l := range []*nn.Linear{fc1, fc2} {
		if err := eng.Virtualize(l.W); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	eng.Freeze()
	for g, s := range eng.AccumulatedGradients() {
		if math.Float32bits(s) != math.Float32bits(o.scores[g]) {
			t.Fatalf("scores[%d] = %x, oracle %x", g, math.Float32bits(s), math.Float32bits(o.scores[g]))
		}
	}
	assertIndicesEqual(t, "frozen selection", eng.AppendTrackedIndices(nil), maskIndices(o.mask))
	sgd := optim.NewSGD(0.3)
	for step := 0; step < 3; step++ {
		stepLockstep(t, c.name, step, sgd, o, oset, eng, set)
		assertEngineMatchesOracle(t, fmt.Sprintf("%s step %d", c.name, step), eng, set, o, oset, true)
	}
}

// TestVirtualizeRejectsAblations pins that the ablation switches stay on
// dense storage: virtualizing a tensor of an engine configured with any of
// them is an error, and the engine keeps running densely.
func TestVirtualizeRejectsAblations(t *testing.T) {
	for _, a := range ablations {
		cfg := Config{Budget: 9}
		a.set(&cfg)
		set, fc1, _ := makeSet()
		eng := New(set, cfg)
		if err := eng.Virtualize(fc1.W); err == nil || !strings.Contains(err.Error(), "dense storage only") {
			t.Fatalf("%s: Virtualize error = %v, want the dense-storage-only rejection", a.name, err)
		}
		perturbAll(set, 0.01)
		eng.Apply() // nothing was virtualized: Apply must still run
	}
}

// TestApplyPanicsOnCSRStorage: Apply skips the optimizer step, which CSR
// tensors take only inside Update, so it must refuse once one exists.
func TestApplyPanicsOnCSRStorage(t *testing.T) {
	eng, _ := newEngine(t, engineCase{cfg: Config{Budget: 9}, csr: true})
	defer func() {
		if recover() == nil {
			t.Fatal("Apply on CSR storage did not panic")
		}
	}()
	eng.Apply()
}

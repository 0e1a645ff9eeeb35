package core

import (
	"testing"

	"dropback/internal/optim"
)

// maskIndices converts a boolean mask into its ascending list of set global
// indices — the reference AppendTrackedIndices is checked against.
func maskIndices(mask []bool) []int32 {
	var out []int32
	for i, m := range mask {
		if m {
			out = append(out, int32(i))
		}
	}
	return out
}

func assertIndicesEqual(t *testing.T, ctx string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d indices, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: idx[%d] = %d, want %d", ctx, i, got[i], want[i])
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("%s: idx[%d]=%d not ascending after %d", ctx, i, got[i], got[i-1])
		}
	}
}

// TestDropBackAppendTrackedIndices: the list must mirror Mask() exactly —
// ascending, budget-length after a selection, and re-derived after the set
// churns. Both ends of a multi-node frozen exchange build their wire layout
// from this list, so mask/list agreement is what makes the no-index-side-band
// frames decodable.
func TestDropBackAppendTrackedIndices(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 7})

	perturbAll(set, 0.01)
	db.Apply()
	idx := db.AppendTrackedIndices(nil)
	assertIndicesEqual(t, "first selection", idx, maskIndices(db.Mask()))
	if len(idx) != 7 {
		t.Fatalf("tracked %d indices, want the budget 7", len(idx))
	}

	// Push a different set of weights far from init so the selection churns,
	// then re-derive.
	perturb(set, map[int]float32{0: 5, 11: 5, 23: 5, 37: 5, 41: 5, 45: 5, 50: 5})
	db.Apply()
	idx2 := db.AppendTrackedIndices(nil)
	assertIndicesEqual(t, "after churn", idx2, maskIndices(db.Mask()))

	// Append semantics: an existing prefix is preserved.
	pre := []int32{-1, -2}
	got := db.AppendTrackedIndices(pre)
	if got[0] != -1 || got[1] != -2 {
		t.Fatalf("prefix clobbered: %v", got[:2])
	}
	assertIndicesEqual(t, "appended tail", got[2:], idx2)
}

// TestDropBackAppendTrackedIndicesFrozen covers both freeze orders: freezing
// after Apply must pin the latest selection, and freezing before any Apply
// must select once rather than freeze an empty set.
func TestDropBackAppendTrackedIndicesFrozen(t *testing.T) {
	set, _, _ := makeSet()
	db := New(set, Config{Budget: 5})
	perturbAll(set, 0.02)
	db.Apply()
	before := db.AppendTrackedIndices(nil)
	db.Freeze()
	assertIndicesEqual(t, "freeze pins latest selection", db.AppendTrackedIndices(nil), before)

	fresh, _, _ := makeSet()
	db2 := New(fresh, Config{Budget: 5})
	perturbAll(fresh, 0.02)
	db2.Freeze() // no Apply yet: must select, not freeze the empty set
	idx := db2.AppendTrackedIndices(nil)
	if len(idx) != 5 {
		t.Fatalf("freeze-before-apply tracked %d indices, want 5", len(idx))
	}
	assertIndicesEqual(t, "freeze before apply", idx, maskIndices(db2.Mask()))
}

// TestTrackedTrainerAppendTrackedIndicesMatchesDense drives the engine on
// both storages (and each ablation on dense storage) in lockstep with the
// dense oracle and requires identical index lists at every step — through
// live selection, the freeze, and the frozen path, which for CSR storage
// walks the index arrays in O(k).
func TestTrackedTrainerAppendTrackedIndicesMatchesDense(t *testing.T) {
	for _, c := range engineCases(9) {
		o, oset := newOracleFor(c)
		eng, eset := newEngine(t, c)
		sgd := optim.NewSGD(0.3)
		compare := func(ctx string) {
			t.Helper()
			assertIndicesEqual(t, c.name+" "+ctx, eng.AppendTrackedIndices(nil), maskIndices(o.mask))
		}
		for step := 0; step < 6; step++ {
			stepLockstep(t, c.name, step, sgd, o, oset, eng, eset)
			compare("step")
			if step%3 == 2 {
				o.MaybeFreezeAtEpochEnd(step / 3)
				eng.EndEpoch(step / 3)
				compare("epoch end")
			}
		}
	}
}

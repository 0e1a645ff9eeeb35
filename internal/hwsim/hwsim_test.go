package hwsim

import (
	"testing"
	"testing/quick"
)

func TestPolicyString(t *testing.T) {
	if DirectMapped.String() != "direct-mapped" || LRU.String() != "lru" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() != "unknown" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestNewSimulatorPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	NewSimulator(Config{SRAMWords: 0})
}

func TestRegenNeverTouchesMemory(t *testing.T) {
	for _, p := range []Policy{DirectMapped, LRU} {
		s := NewSimulator(Config{SRAMWords: 4, Policy: p})
		for i := 0; i < 100; i++ {
			s.Step(Access{Kind: Regen, Index: uint32(i)})
		}
		st := s.Stats()
		if st.SRAMHits != 0 || st.SRAMMisses != 0 || st.DRAMReads != 0 || st.DRAMWrites != 0 {
			t.Fatalf("%v: regen touched the hierarchy: %+v", p, st)
		}
		if st.Regenerations != 100 {
			t.Fatalf("%v: regenerations = %d", p, st.Regenerations)
		}
	}
}

func TestWorkingSetFitsGivesAllHitsAfterColdFill(t *testing.T) {
	for _, p := range []Policy{DirectMapped, LRU} {
		s := NewSimulator(Config{SRAMWords: 8, Policy: p})
		// 8-weight working set accessed 10 times.
		for round := 0; round < 10; round++ {
			for i := uint32(0); i < 8; i++ {
				s.Step(Access{Kind: Read, Index: i})
			}
		}
		st := s.Stats()
		if st.SRAMMisses != 8 {
			t.Fatalf("%v: misses = %d, want 8 (cold fill only)", p, st.SRAMMisses)
		}
		if st.SRAMHits != 72 {
			t.Fatalf("%v: hits = %d, want 72", p, st.SRAMHits)
		}
	}
}

func TestThrashingWhenWorkingSetExceedsCapacity(t *testing.T) {
	// Cyclic sweep over 2x capacity: LRU gets zero hits (the pathological
	// LRU case); direct-mapped also misses everything because slot i and
	// slot i+capacity alias.
	for _, p := range []Policy{DirectMapped, LRU} {
		s := NewSimulator(Config{SRAMWords: 8, Policy: p})
		for round := 0; round < 5; round++ {
			for i := uint32(0); i < 16; i++ {
				s.Step(Access{Kind: Read, Index: i})
			}
		}
		st := s.Stats()
		if st.SRAMHits != 0 {
			t.Fatalf("%v: hits = %d, want 0 under cyclic thrash", p, st.SRAMHits)
		}
		if st.DRAMReads != 80 {
			t.Fatalf("%v: DRAM reads = %d, want 80", p, st.DRAMReads)
		}
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s := NewSimulator(Config{SRAMWords: 1, Policy: DirectMapped})
	s.Step(Access{Kind: Write, Index: 0}) // miss, fill, dirty
	s.Step(Access{Kind: Read, Index: 1})  // evicts dirty 0 -> writeback
	st := s.Stats()
	if st.DRAMWrites != 1 {
		t.Fatalf("DRAM writes = %d, want 1 (dirty eviction)", st.DRAMWrites)
	}
	s.Step(Access{Kind: Read, Index: 2}) // evicts clean 1 -> no writeback
	if s.Stats().DRAMWrites != 1 {
		t.Fatal("clean eviction must not write back")
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	s := NewSimulator(Config{SRAMWords: 2, Policy: LRU})
	s.Step(Access{Kind: Read, Index: 0})
	s.Step(Access{Kind: Read, Index: 1})
	s.Step(Access{Kind: Read, Index: 0}) // refresh 0; LRU is now 1
	s.Step(Access{Kind: Read, Index: 2}) // evicts 1
	s.Step(Access{Kind: Read, Index: 0}) // must still hit
	st := s.Stats()
	if st.SRAMHits != 2 {
		t.Fatalf("hits = %d, want 2 (refresh + post-eviction hit)", st.SRAMHits)
	}
}

func TestHitRate(t *testing.T) {
	s := NewSimulator(Config{SRAMWords: 2, Policy: LRU})
	s.Step(Access{Kind: Read, Index: 0})
	s.Step(Access{Kind: Read, Index: 0})
	if got := s.Stats().HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate must be 0")
	}
}

func TestEnergyAccumulates(t *testing.T) {
	s := NewSimulator(Config{SRAMWords: 2, Policy: DirectMapped, PJPerSRAMAccess: 5})
	s.Step(Access{Kind: Read, Index: 0}) // miss: DRAM(640) + SRAM(5)
	s.Step(Access{Kind: Read, Index: 0}) // hit: SRAM(5)
	want := 640.0 + 5 + 5
	if got := s.Stats().EnergyPJ; got != want {
		t.Fatalf("energy = %v, want %v", got, want)
	}
}

func TestTraceGeneration(t *testing.T) {
	trace := Generate(TraceConfig{TotalWeights: 4, Steps: 1})
	// Dense: 2 read sweeps + 1 write sweep = 12 accesses.
	if len(trace) != 12 {
		t.Fatalf("dense trace has %d events, want 12", len(trace))
	}
	mask := []bool{true, false, true, false}
	trace = Generate(TraceConfig{TotalWeights: 4, TrackedMask: mask, Steps: 1})
	// 2 sweeps x (2 reads + 2 regens) + 2 writes = 10 events.
	if len(trace) != 10 {
		t.Fatalf("dropback trace has %d events, want 10", len(trace))
	}
	regens := 0
	maxAddr := uint32(0)
	for _, a := range trace {
		if a.Kind == Regen {
			regens++
		} else if a.Index > maxAddr {
			maxAddr = a.Index
		}
	}
	if regens != 4 {
		t.Fatalf("regens = %d, want 4", regens)
	}
	// Compaction: tracked addresses must be ranks {0, 1}.
	if maxAddr != 1 {
		t.Fatalf("max tracked address = %d, want 1 (compact ranks)", maxAddr)
	}
}

func TestCompareDropBackWins(t *testing.T) {
	for _, p := range []Policy{DirectMapped, LRU} {
		r := Compare(1000, 100, 3, p)
		// Baseline working set (1000) is 10x SRAM (100): thrash. DropBack
		// working set == SRAM: only cold misses.
		// 900 tracked accesses with 100 cold misses -> 8/9 hit rate.
		if r.DropBack.HitRate() < 0.85 {
			t.Fatalf("%v: DropBack hit rate %.2f, want >= 0.85", p, r.DropBack.HitRate())
		}
		if r.Baseline.HitRate() > 0.2 {
			t.Fatalf("%v: baseline hit rate %.2f unexpectedly high", p, r.Baseline.HitRate())
		}
		if r.EnergyReduction < 5 {
			t.Fatalf("%v: energy reduction %.1f, want substantial", p, r.EnergyReduction)
		}
		if r.DRAMReduction < 10 {
			t.Fatalf("%v: DRAM reduction %.1f, want large", p, r.DRAMReduction)
		}
	}
}

func TestCompareEnergyMatchesStats(t *testing.T) {
	f := func(seedRaw uint16) bool {
		n := int(seedRaw)%500 + 100
		k := n/10 + 1
		r := Compare(n, k, 2, LRU)
		// Energy must be consistent with counted events.
		e := float64(r.DropBack.DRAMReads+r.DropBack.DRAMWrites)*640 +
			float64(r.DropBack.SRAMHits+r.DropBack.SRAMMisses)*5 +
			float64(r.DropBack.Regenerations)*1.5
		return abs(e-r.DropBack.EnergyPJ) < 1e-6*e+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestGenerateStepsScalesWithSteps(t *testing.T) {
	a := Generate(TraceConfig{TotalWeights: 10, Steps: 1})
	b := Generate(TraceConfig{TotalWeights: 10, Steps: 3})
	if len(b) != 3*len(a) {
		t.Fatalf("3-step trace has %d events, want %d", len(b), 3*len(a))
	}
}

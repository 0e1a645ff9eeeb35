package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"dropback/internal/telemetry"
)

var t0 = time.Unix(1000, 0)

func at(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }

// span records a closed span [from, to] ms on the recorder.
func span(r *traceRecorder, p telemetry.Phase, name string, from, to float64) {
	r.beginAt(p, name, at(from))
	r.endAt(p, name, at(to))
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	r := newTraceRecorder(-1)
	fw := telemetry.PhaseForward
	r.beginAt(fw, "net/block", at(0))
	span(r, fw, "net/block/fc", 2, 5)
	r.beginAt(fw, "net/block/inner", at(5))
	span(r, fw, "net/block/inner/relu", 6, 7)
	r.endAt(fw, "net/block/inner", at(8))
	r.endAt(fw, "net/block", at(10))
	span(r, fw, "net/head", 10, 11)
	r.StepDone(telemetry.StepSample{Epoch: 1, Step: 1, Examples: 4, Latency: 15 * time.Millisecond})

	self := r.phases[live].self[fw]
	want := map[string]time.Duration{
		"net/block":            4 * time.Millisecond, // 10 - 3 (fc) - 3 (inner)
		"net/block/fc":         3 * time.Millisecond,
		"net/block/inner":      2 * time.Millisecond, // 3 - 1 (relu)
		"net/block/inner/relu": 1 * time.Millisecond,
		"net/head":             1 * time.Millisecond,
	}
	for n, d := range want {
		if self[n] != d {
			t.Errorf("self[%s] = %v, want %v", n, self[n], d)
		}
	}
	ph := r.phases[live]
	if ph.spanned != 11*time.Millisecond || ph.update != 4*time.Millisecond {
		t.Errorf("spanned %v update %v, want 11ms and 4ms (top-level spans only)", ph.spanned, ph.update)
	}
	if len(r.anomalies) != 0 {
		t.Errorf("anomalies: %v", r.anomalies)
	}
}

func TestMismatchedSpanIsAnAnomaly(t *testing.T) {
	r := newTraceRecorder(-1)
	r.beginAt(telemetry.PhaseForward, "a", at(0))
	r.endAt(telemetry.PhaseForward, "b", at(1))
	r.endAt(telemetry.PhaseBackward, "c", at(2))
	if len(r.anomalies) != 2 {
		t.Fatalf("anomalies = %v, want 2", r.anomalies)
	}
}

// The trainer runs the validation pass after an epoch's last StepDone and
// before EpochDone: its forward spans must not count as training.
func TestEvalSpansSeparatedFromTrainingAndPhasesSplit(t *testing.T) {
	r := newTraceRecorder(1) // epoch 1 live, epoch 2 frozen
	fw, bw := telemetry.PhaseForward, telemetry.PhaseBackward
	for epoch := 1; epoch <= 2; epoch++ {
		for step := 0; step < 2; step++ {
			base := float64(epoch*100 + step*10)
			span(r, fw, "m/fc1", base, base+2)
			span(r, bw, "m/fc1", base+2, base+5)
			r.Counter("dropback/swaps", float64(epoch))
			r.StepDone(telemetry.StepSample{Epoch: epoch, Examples: 8, Latency: 6 * time.Millisecond})
		}
		base := float64(epoch*100 + 50)
		span(r, fw, "m/fc1", base, base+7)   // validation batch 1
		span(r, fw, "m/fc1", base+7, base+8) // validation batch 2
		r.Gauge("dropback/regenerations", float64(epoch*1000))
		r.EpochDone(telemetry.EpochSample{Epoch: epoch})
	}
	for i, name := range phaseNames {
		ph := r.phases[i]
		if ph.steps != 2 {
			t.Fatalf("%s steps = %d, want 2", name, ph.steps)
		}
		if got := ph.self[fw]["m/fc1"]; got != 4*time.Millisecond {
			t.Errorf("%s training forward = %v, want 4ms (validation spans excluded)", name, got)
		}
		if got := ph.self[bw]["m/fc1"]; got != 6*time.Millisecond {
			t.Errorf("%s training backward = %v, want 6ms", name, got)
		}
		if got := ph.update; got != 2*time.Millisecond {
			t.Errorf("%s update = %v, want 2ms", name, got)
		}
		if got := ph.counters["dropback/swaps"]; got != float64(2*(i+1)) {
			t.Errorf("%s swaps = %v, want %d", name, got, 2*(i+1))
		}
	}
	if r.evalPasses != 2 || r.evalTop != 16*time.Millisecond {
		t.Errorf("eval passes %d total %v, want 2 and 16ms", r.evalPasses, r.evalTop)
	}
	if d, ok := r.gaugeDelta("dropback/regenerations", frozen); !ok || d != 1000 {
		t.Errorf("frozen regenerations delta = %v, %v; want 1000", d, ok)
	}
	if d, ok := r.gaugeDelta("dropback/regenerations", live); !ok || d != 1000 {
		t.Errorf("live regenerations delta = %v, %v; want 1000", d, ok)
	}
}

func TestLayerName(t *testing.T) {
	if got := layerName("mnist100/fc1"); got != "fc1" {
		t.Fatalf("layerName = %q", got)
	}
	if got := layerName("fc1"); got != "fc1" {
		t.Fatalf("layerName = %q", got)
	}
}

// The metric lists the program prints must be exactly those BENCHMARK.json
// declares, with the same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

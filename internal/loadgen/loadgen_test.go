package loadgen_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dropback/internal/loadgen"
	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/serve"
	"dropback/internal/tensor"
)

// slowLayer adds a fixed service time to every forward pass, turning the
// test server into a capacity-limited resource the generator can saturate.
type slowLayer struct{ d time.Duration }

func (slowLayer) Name() string { return "slow" }
func (l slowLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	time.Sleep(l.d)
	return x
}
func (slowLayer) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }
func (slowLayer) Params() []*nn.Param                       { return nil }

func testServer(t *testing.T, serviceTime time.Duration, queueDepth int) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{
		NewSparseReplica: func() (serve.Replica, error) {
			inner := models.NewMLP(models.MLPConfig{Name: "lg", In: 8, Hidden: []int{6}, Classes: 3, Seed: 2})
			seq := nn.NewSequential("lg-slow", slowLayer{serviceTime}, inner.Net)
			return serve.ModelReplica{M: nn.NewModel(seq, 2)}, nil
		},
		InputShape: []int{8},
		Replicas:   1,
		MaxBatch:   1,
		MaxWait:    -1,
		QueueDepth: queueDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(s, serve.HandlerConfig{RequestTimeout: 5 * time.Second}))
	return s, ts
}

// TestRunAgainstHealthyServer checks the happy path: offered load below
// capacity, everything succeeds, the report adds up, and the bench lines
// carry every gated metric.
func TestRunAgainstHealthyServer(t *testing.T) {
	s, ts := testServer(t, 0, 64)
	defer ts.Close()
	defer s.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:      ts.URL,
		RPS:      100,
		Duration: 300 * time.Millisecond,
		InputLen: 8,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.OK != rep.Sent {
		t.Fatalf("sent=%d ok=%d: want every request sent and answered", rep.Sent, rep.OK)
	}
	if rep.Shed != 0 || rep.Failed != 0 {
		t.Errorf("shed=%d failed=%d against an idle server, want 0/0", rep.Shed, rep.Failed)
	}
	if len(rep.Tiers) != 1 || rep.Tiers[0].Tier != "interactive" {
		t.Fatalf("tiers %+v, want the interactive default", rep.Tiers)
	}
	tr := rep.Tiers[0]
	if tr.P50 <= 0 || tr.P99 < tr.P50 || tr.Max < tr.P99 {
		t.Errorf("latency ordering broken: p50=%v p99=%v max=%v", tr.P50, tr.P99, tr.Max)
	}
	if tr.Throughput <= 0 {
		t.Errorf("throughput %g, want > 0", tr.Throughput)
	}

	var buf bytes.Buffer
	if err := loadgen.WriteBenchLines(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"BenchmarkServeLoad/tier=interactive/p50",
		"BenchmarkServeLoad/tier=interactive/p99",
		"BenchmarkServeLoad/tier=interactive/ns_per_req",
		"BenchmarkServeLoad/tier=interactive/shed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("bench lines missing %s:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) < 4 || !strings.HasSuffix(line, "allocs/op") {
			t.Errorf("bench line not benchguard-parseable: %q", line)
		}
	}
}

// TestRunShedsLowTiersUnderOverload saturates a 1-replica server at ~2x
// capacity with a mixed-tier load and checks shedding lands on the lower
// tier, never proportionally on interactive.
func TestRunShedsLowTiersUnderOverload(t *testing.T) {
	s, ts := testServer(t, 5*time.Millisecond, 2) // capacity ~200 rps, tiny queues
	defer ts.Close()
	defer s.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:      ts.URL,
		RPS:      400,
		Duration: 500 * time.Millisecond,
		Tiers: []loadgen.TierMix{
			{Tier: "interactive", Weight: 1},
			{Tier: "best-effort", Weight: 2},
		},
		InputLen: 8,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.SortTiers()
	byName := map[string]loadgen.TierReport{}
	for _, tr := range rep.Tiers {
		byName[tr.Tier] = tr
	}
	be, inter := byName["best-effort"], byName["interactive"]
	if be.Sent == 0 || inter.Sent == 0 {
		t.Fatalf("mix not exercised: %+v", rep.Tiers)
	}
	if be.Shed == 0 {
		t.Errorf("best-effort shed 0 of %d at 2x overload, want > 0", be.Sent)
	}
	if be.ShedRate < inter.ShedRate {
		t.Errorf("interactive shed rate %.3f exceeds best-effort's %.3f: priority inverted",
			inter.ShedRate, be.ShedRate)
	}
	if rep.Failed != 0 {
		t.Errorf("%d hard failures under clean overload, want 0 (shedding is not failing)", rep.Failed)
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	bad := []loadgen.Config{
		{RPS: 1, Duration: time.Second, InputLen: 8},          // no URL
		{URL: "http://x", Duration: time.Second, InputLen: 8}, // no RPS
		{URL: "http://x", RPS: 1, InputLen: 8},                // no duration
		{URL: "http://x", RPS: 1, Duration: time.Second},      // no input len
		{URL: "http://x", RPS: 1, Duration: time.Second, InputLen: 8, Tiers: []loadgen.TierMix{{Tier: "interactive", Weight: -1}}},
	}
	for i, cfg := range bad {
		if _, err := loadgen.Run(ctx, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

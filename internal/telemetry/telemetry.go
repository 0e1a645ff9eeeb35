// Package telemetry is the training stack's zero-dependency tracing and
// metrics subsystem. DropBack's contribution is a systems claim — fewer
// tracked weights should mean less memory traffic and faster training — so
// every performance PR needs a trustworthy way to show where wall-clock and
// allocation time go. This package provides it:
//
//   - per-layer forward/backward span timing, collected by the nn layer
//     containers through the Recorder interface;
//   - per-step counters: loss, examples/sec throughput, batch latency
//     quantiles (p50/p95/max);
//   - per-epoch heap and GC telemetry via runtime.ReadMemStats;
//   - DropBack-specific gauges (tracked-set size, churn, regenerated-weight
//     counts) sourced from internal/core through the trainer;
//   - structured sinks: a JSONL stream, a human-readable summary table, and
//     a BENCH_telemetry.json export for the benchmark trajectory;
//   - opt-in pprof CPU/heap capture for the CLIs.
//
// The default recorder is Nop: a disabled hot path pays a nil check or a
// single dynamic call that does nothing and allocates nothing, so
// instrumentation can stay compiled into the training loop permanently.
// Recorders only observe — they never touch weights, gradients, or random
// state — so telemetry on/off cannot perturb training (the determinism
// regression test at the repo root proves this bit-for-bit).
package telemetry

import "time"

// Gauge names for the tensor-workspace reuse counters the trainer exports at
// every epoch boundary. They are cumulative process-wide totals (see
// tensor.WorkspaceStats); paired with the epoch heap-delta samples they show
// whether the hot path is reusing scratch buffers instead of allocating.
const (
	// GaugeWorkspaceHits counts buffer requests served from an existing slot.
	GaugeWorkspaceHits = "workspace/hits"
	// GaugeWorkspaceMisses counts requests that had to allocate or grow.
	GaugeWorkspaceMisses = "workspace/misses"
	// GaugeWorkspaceBytesReused totals bytes handed out without allocating.
	GaugeWorkspaceBytesReused = "workspace/bytes_reused"
)

// Names for the data-parallel training executor's telemetry.
const (
	// GaugeTrainWorkers is the trainer's worker count (1 = sequential),
	// exported at every epoch boundary.
	GaugeTrainWorkers = "train/workers"
	// CounterTrainShardSeconds accumulates per-shard wall time across all
	// workers; divided by wall-clock step time it shows parallel efficiency.
	CounterTrainShardSeconds = "train/shard_seconds"
)

// Names for the multi-node training executor's telemetry.
const (
	// GaugeDistWorld is the cluster size, exported at every epoch boundary.
	GaugeDistWorld = "dist/world"
	// CounterDistBytesSent accumulates bytes written to all peers — true
	// bytes-on-wire from the socket-level counters, which the O(k) wire
	// test asserts exactly against the analytical frame size.
	CounterDistBytesSent = "dist/bytes_sent"
	// CounterDistBytesReceived accumulates bytes read from all peers.
	CounterDistBytesReceived = "dist/bytes_received"
	// CounterDistFoldWaitSeconds accumulates wall time each step spends in
	// the gradient transfers (sending frames and waiting for peers' frames,
	// down the rank chain or in the frozen exchange) — the communication
	// share of the step.
	CounterDistFoldWaitSeconds = "dist/fold_wait_seconds"
)

// DistPeerCounter names the per-peer byte counter for one direction
// ("sent" or "received"), e.g. dist/peer2/sent.
func DistPeerCounter(rank int, direction string) string {
	return "dist/peer" + itoa(rank) + "/" + direction
}

// itoa is a minimal non-negative integer formatter, avoiding strconv in a
// package kept dependency-light for the zero-alloc nop path.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Phase distinguishes the two halves of a training step a layer span can
// belong to.
type Phase uint8

const (
	// PhaseForward is the inference/forward pass.
	PhaseForward Phase = iota
	// PhaseBackward is the gradient/backward pass.
	PhaseBackward
)

// String returns the phase name used in JSONL records and summary tables.
func (p Phase) String() string {
	if p == PhaseBackward {
		return "backward"
	}
	return "forward"
}

// StepSample is one optimizer step's worth of training counters. Latency is
// the wall time of the full step (forward, backward, optimizer, constraint).
type StepSample struct {
	Epoch    int           `json:"epoch"`
	Step     int           `json:"step"`
	Loss     float64       `json:"loss"`
	Examples int           `json:"examples"`
	Latency  time.Duration `json:"latency_ns"`
}

// ExamplesPerSec is the step's training throughput.
func (s StepSample) ExamplesPerSec() float64 {
	if s.Latency <= 0 {
		return 0
	}
	return float64(s.Examples) / s.Latency.Seconds()
}

// EpochSample is one epoch's worth of training counters as reported by the
// trainer. Examples counts training examples consumed; Duration is the wall
// time of the training phase (validation excluded).
type EpochSample struct {
	Epoch     int           `json:"epoch"`
	TrainLoss float64       `json:"train_loss"`
	TrainAcc  float64       `json:"train_acc"`
	ValLoss   float64       `json:"val_loss"`
	ValAcc    float64       `json:"val_acc"`
	Examples  int           `json:"examples"`
	Duration  time.Duration `json:"duration_ns"`
}

// ExamplesPerSec is the epoch's training throughput.
func (e EpochSample) ExamplesPerSec() float64 {
	if e.Duration <= 0 {
		return 0
	}
	return float64(e.Examples) / e.Duration.Seconds()
}

// Recorder receives telemetry events from the training stack. Implementations
// must be cheap when disabled: every producer either holds a nil Recorder or
// guards its instrumentation behind Enabled().
//
// Span events arrive strictly nested per phase (a BeginSpan/EndSpan pair
// encloses the pairs of any layers nested inside it), which lets a collector
// separate a container's self time from its children's time.
type Recorder interface {
	// Enabled reports whether events are being collected. Producers use it
	// to skip the time.Now() calls that bracket spans and steps.
	Enabled() bool
	// BeginSpan opens a timing span for one layer in one phase.
	BeginSpan(phase Phase, name string)
	// EndSpan closes the innermost open span; name and phase must match the
	// corresponding BeginSpan.
	EndSpan(phase Phase, name string)
	// Counter accumulates delta into a named monotonic counter (e.g.
	// DropBack tracked-set churn per step).
	Counter(name string, delta float64)
	// Gauge records the latest value of a named gauge (e.g. tracked-set
	// size at an epoch boundary).
	Gauge(name string, v float64)
	// StepDone reports a completed optimizer step.
	StepDone(s StepSample)
	// EpochDone reports a completed epoch.
	EpochDone(e EpochSample)
}

// Nop is the disabled recorder: every method does nothing and allocates
// nothing. It is the default wherever a Recorder is optional.
type Nop struct{}

// Enabled implements Recorder; it always reports false.
func (Nop) Enabled() bool { return false }

// BeginSpan implements Recorder.
func (Nop) BeginSpan(Phase, string) {}

// EndSpan implements Recorder.
func (Nop) EndSpan(Phase, string) {}

// Counter implements Recorder.
func (Nop) Counter(string, float64) {}

// Gauge implements Recorder.
func (Nop) Gauge(string, float64) {}

// StepDone implements Recorder.
func (Nop) StepDone(StepSample) {}

// EpochDone implements Recorder.
func (Nop) EpochDone(EpochSample) {}

// OrNop returns rec if non-nil and Nop otherwise, so callers can thread an
// optional recorder without nil checks at every call site. A nil *Collector
// stored in the interface (the easy mistake when threading an optional
// collector through a config struct) counts as nil too.
func OrNop(rec Recorder) Recorder {
	if rec == nil {
		return Nop{}
	}
	if c, ok := rec.(*Collector); ok && c == nil {
		return Nop{}
	}
	return rec
}

package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dropback/internal/telemetry"
)

// Phase indices for the live (tracked set still changing) and frozen parts
// of a training run.
const (
	live = iota
	frozen
)

var phaseNames = [2]string{"live", "frozen"}

// phaseStats aggregates the training steps of one phase.
type phaseStats struct {
	steps   int
	latency []time.Duration
	// update is step latency minus the top-level forward and backward spans
	// of the step: the optimizer, DropBack selection and regeneration, and
	// any exchange the executor does outside the layer spans.
	update   time.Duration
	spanned  time.Duration
	self     [2]map[string]time.Duration // per telemetry.Phase, by span name
	counters map[string]float64
}

// traceRecorder is the benchmark's telemetry.Recorder. It keeps everything in
// memory and reduces it after the run:
//   - each span's self time is its duration minus the time its child spans
//     (strictly nested, per phase) cover;
//   - spans and counters are held as pending until the next StepDone, which
//     assigns them to that training step, or EpochDone, which marks the
//     forward spans since the epoch's last step as the validation pass;
//   - steps go to the live or frozen phase by epoch: epochs up to
//     lastLiveEpoch (1-based) run before DropBack freezes its tracked set;
//   - gauges are snapshotted at every epoch boundary.
//
// It is safe for concurrent use, though the trainer calls it from one
// goroutine.
type traceRecorder struct {
	mu            sync.Mutex
	lastLiveEpoch int

	stack      [2][]openSpan
	pendSelf   [2]map[string]time.Duration
	pendTop    [2]time.Duration
	pendCount  map[string]float64
	phases     [2]*phaseStats
	evalTop    time.Duration
	evalPasses int

	gauges      map[string]float64
	epochGauges []map[string]float64
	anomalies   []string
}

func newPhaseStats() *phaseStats {
	ph := &phaseStats{counters: map[string]float64{}}
	for p := range ph.self {
		ph.self[p] = map[string]time.Duration{}
	}
	return ph
}

// add merges another job's statistics for the same phase.
func (ph *phaseStats) add(o *phaseStats) {
	ph.steps += o.steps
	ph.latency = append(ph.latency, o.latency...)
	ph.update += o.update
	ph.spanned += o.spanned
	for p := range o.self {
		for n, d := range o.self[p] {
			ph.self[p][n] += d
		}
	}
	for n, v := range o.counters {
		ph.counters[n] += v
	}
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration
}

func newTraceRecorder(lastLiveEpoch int) *traceRecorder {
	r := &traceRecorder{lastLiveEpoch: lastLiveEpoch, pendCount: map[string]float64{}, gauges: map[string]float64{}}
	for p := range r.pendSelf {
		r.pendSelf[p] = map[string]time.Duration{}
	}
	for i := range r.phases {
		r.phases[i] = newPhaseStats()
	}
	return r
}

var _ telemetry.Recorder = (*traceRecorder)(nil)

func (r *traceRecorder) Enabled() bool { return true }

func (r *traceRecorder) BeginSpan(phase telemetry.Phase, name string) {
	r.beginAt(phase, name, time.Now())
}

func (r *traceRecorder) EndSpan(phase telemetry.Phase, name string) {
	r.endAt(phase, name, time.Now())
}

func (r *traceRecorder) beginAt(phase telemetry.Phase, name string, now time.Time) {
	r.mu.Lock()
	r.stack[phase] = append(r.stack[phase], openSpan{name: name, start: now})
	r.mu.Unlock()
}

func (r *traceRecorder) endAt(phase telemetry.Phase, name string, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stack[phase]
	if len(st) == 0 {
		r.anomaly("EndSpan %s/%s without an open span", phase, name)
		return
	}
	top := st[len(st)-1]
	r.stack[phase] = st[:len(st)-1]
	if top.name != name {
		r.anomaly("EndSpan %s/%s closes open span %s", phase, name, top.name)
	}
	d := now.Sub(top.start)
	r.pendSelf[phase][top.name] += d - top.child
	if n := len(st) - 1; n > 0 {
		r.stack[phase][n-1].child += d
	} else {
		r.pendTop[phase] += d
	}
}

func (r *traceRecorder) Counter(name string, delta float64) {
	r.mu.Lock()
	r.pendCount[name] += delta
	r.mu.Unlock()
}

func (r *traceRecorder) Gauge(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

func (r *traceRecorder) StepDone(s telemetry.StepSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.phases[r.phaseOf(s.Epoch)]
	ph.steps++
	ph.latency = append(ph.latency, s.Latency)
	top := r.pendTop[telemetry.PhaseForward] + r.pendTop[telemetry.PhaseBackward]
	ph.update += s.Latency - top
	ph.spanned += top
	for p := range r.pendSelf {
		for n, d := range r.pendSelf[p] {
			ph.self[p][n] += d
		}
	}
	for n, v := range r.pendCount {
		ph.counters[n] += v
	}
	r.clearPending()
}

func (r *traceRecorder) EpochDone(e telemetry.EpochSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pendSelf[telemetry.PhaseBackward]) > 0 {
		r.anomaly("epoch %d: backward spans after the last step", e.Epoch)
	}
	if r.pendTop[telemetry.PhaseForward] > 0 {
		r.evalTop += r.pendTop[telemetry.PhaseForward]
		r.evalPasses++
	}
	snap := make(map[string]float64, len(r.gauges))
	for n, v := range r.gauges {
		snap[n] = v
	}
	r.epochGauges = append(r.epochGauges, snap)
	r.clearPending()
}

func (r *traceRecorder) clearPending() {
	for p := range r.pendSelf {
		clear(r.pendSelf[p])
		r.pendTop[p] = 0
	}
	clear(r.pendCount)
}

func (r *traceRecorder) phaseOf(epoch int) int {
	if r.lastLiveEpoch >= 0 && epoch > r.lastLiveEpoch {
		return frozen
	}
	return live
}

func (r *traceRecorder) anomaly(format string, args ...any) {
	if len(r.anomalies) < 10 {
		r.anomalies = append(r.anomalies, fmt.Sprintf(format, args...))
	}
}

// gaugeDelta is the change of a cumulative gauge across the epochs of one
// phase, and whether the gauge was reported at all.
func (r *traceRecorder) gaugeDelta(name string, phase int) (float64, bool) {
	last := len(r.epochGauges)
	if last == 0 {
		return 0, false
	}
	cut := r.lastLiveEpoch
	if cut < 0 || cut > last {
		cut = last
	}
	at := func(n int) (float64, bool) {
		if n == 0 {
			return 0, true
		}
		v, ok := r.epochGauges[n-1][name]
		return v, ok
	}
	lo, hi := 0, cut
	if phase == frozen {
		lo, hi = cut, last
	}
	a, okA := at(lo)
	b, okB := at(hi)
	return b - a, okA && okB && hi > lo
}

// layerName strips the model prefix from a span name ("mnist100/fc1" ->
// "fc1"), so metric names do not depend on the model's own name.
func layerName(span string) string {
	if i := strings.LastIndexByte(span, '/'); i >= 0 {
		return span[i+1:]
	}
	return span
}

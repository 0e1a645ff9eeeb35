// Command perfbench is the repository benchmark: it runs one workload of
// DropBack training or serving through the public dropback facade, checks
// every output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload train-dense --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each per-layer metric is predicted to move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// absent is the value reported for a metric the workload does not produce:
// every metric is non-negative, so -1 cannot be mistaken for a measurement
// (and, unlike 0, it cannot be mistaken for "no time spent").
const absent = -1

type metricSpec struct{ name, unit string }

// endToEnd and perLayer list every metric BENCHMARK.json declares, in the
// same order; a run prints all of one list (a test keeps them in sync).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"time_to_target_s", "s"},
	{"samples_per_s", "1/s"},
	{"val_acc", "fraction"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"data.gen_s", "s"},
	{"nn.fwd_self_ms.fc1", "ms"},
	{"nn.fwd_self_ms.relu1", "ms"},
	{"nn.fwd_self_ms.fc2", "ms"},
	{"nn.fwd_self_ms.relu2", "ms"},
	{"nn.fwd_self_ms.fc3", "ms"},
	{"nn.bwd_self_ms.fc1", "ms"},
	{"nn.bwd_self_ms.relu1", "ms"},
	{"nn.bwd_self_ms.fc2", "ms"},
	{"nn.bwd_self_ms.relu2", "ms"},
	{"nn.bwd_self_ms.fc3", "ms"},
	{"nn.eval_fwd_ms", "ms"},
	{"trainer.step_ms_p50.live", "ms"},
	{"trainer.step_ms_p50.frozen", "ms"},
	{"trainer.step_ms_p95", "ms"},
	{"core.update_ms.live", "ms"},
	{"core.update_ms.frozen", "ms"},
	{"core.swaps_per_step", "count"},
	{"core.regenerations_per_step", "count"},
	{"core.tracked_writes_per_step", "count"},
	{"core.weight_state_bytes", "B"},
	{"sparsenn.step_ns_per_regen.frozen", "ns"},
	{"dist.bytes_per_step.live", "B"},
	{"dist.bytes_per_step.frozen", "B"},
	{"dist.fold_wait_share.live", "fraction"},
	{"dist.fold_wait_share.frozen", "fraction"},
	{"tensor.workspace_hit_ratio", "fraction"},
	{"runtime.alloc_bytes_per_step", "B"},
	{"runtime.gc_cycles", "count"},
	{"telemetry.overhead_ratio", "ratio"},
	{"serve.p50_ms.low", "ms"},
	{"serve.p99_ms.low", "ms"},
	{"serve.p50_ms.high", "ms"},
	{"serve.p99_ms.high", "ms"},
	{"serve.wait_ms_p50.low", "ms"},
	{"serve.wait_ms_p99.low", "ms"},
	{"serve.wait_ms_p50.high", "ms"},
	{"serve.wait_ms_p99.high", "ms"},
	{"serve.infer_ms_p50.low", "ms"},
	{"serve.infer_ms_p50.high", "ms"},
	{"serve.after_ms_p50.low", "ms"},
	{"serve.after_ms_p50.high", "ms"},
	{"serve.batch_size_mean.low", "count"},
	{"serve.batch_size_mean.high", "count"},
	{"serve.capacity_rps", "1/s"},
	{"serve.gen_late_ms_p99", "ms"},
	{"sparsenn.infer_ms.b1", "ms"},
	{"sparsenn.infer_ms.b8", "ms"},
	{"sparsenn.ns_per_regen", "ns"},
	{"sparsenn.sparse_dense_ratio.b1", "ratio"},
	{"sparsenn.sparse_dense_ratio.b8", "ratio"},
	{"sparse.compile_ms", "ms"},
	{"sparse.artifact_bytes", "B"},
}

// report accumulates one run's outcome: the operations attempted, the ones
// that failed an output check (with the reason), and the metric values.
type report struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	absentWhy         map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, absentWhy: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// markAbsent records why the workload cannot produce a metric.
func (r *report) markAbsent(name, why string) { r.absentWhy[name] = why }

// check counts one checked operation and records it as failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish renders the run's result for the requested metric list. A missing
// end-to-end metric is itself a failure; a missing per-layer metric is
// reported as absent.
func (r *report) finish(specs []metricSpec, traced bool) result {
	out := result{Metrics: map[string]metricOut{}}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok || v != v {
			if !traced {
				r.check(false, "end-to-end metric %s was not measured", s.name)
			}
			v = absent
			if _, why := r.absentWhy[s.name]; !why {
				r.absentWhy[s.name] = "not on this workload's path"
			}
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	if r.attempted == 0 {
		r.check(false, "no operation was attempted")
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0
	return out
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
}

type workloadFunc func(o options, r *report) error

var workloads = map[string]workloadFunc{
	"train-dense":  func(o options, r *report) error { return runTrain(o, r, execDense) },
	"train-sparse": func(o options, r *report) error { return runTrain(o, r, execSparse) },
	"train-dist2":  func(o options, r *report) error { return runTrain(o, r, execDist2) },
	"serve-sparse": runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var seed uint64
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: train-dense, train-sparse, train-dist2 or serve-sparse")
	flag.Uint64Var(&seed, "seed", 1, "workload seed: every input is generated from it")
	flag.IntVar(&seconds, "seconds", 25, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	o.seed, o.seconds, o.traced = seed, float64(seconds), trace == 1
	wl, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) || seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {train-dense|train-sparse|train-dist2|serve-sparse}, --seed > 0, --seconds > 0, --trace {0|1}\n")
		return 2
	}

	prov := provenance()
	prov["workload"] = o.workload
	prov["seed"] = strconv.FormatUint(o.seed, 10)
	prov["trace"] = strconv.Itoa(trace)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)

	r := newReport()
	if err := wl(o, r); err != nil {
		r.check(false, "%v", err)
	}
	specs := endToEnd
	if o.traced {
		specs = perLayer
	}
	res := r.finish(specs, o.traced)

	for _, f := range r.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	printTable(specs, res, r.absentWhy)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable writes a human-readable copy of the metrics, naming every
// absent metric and the reason it is absent.
func printTable(specs []metricSpec, res result, why map[string]string) {
	for _, s := range specs {
		m := res.Metrics[s.name]
		if m.Value == absent {
			fmt.Printf("  %-36s %14s %-8s (%s)\n", s.name, "absent", s.unit, why[s.name])
			continue
		}
		fmt.Printf("  %-36s %14.6g %s\n", s.name, m.Value, s.unit)
	}
}

// provenance records what the figures were measured on and which source.
func provenance() map[string]string {
	p := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	// Only a checkout's own .git names the commit; a git repository further
	// up the directory tree would name some other project's.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p["commit"] = strings.TrimSpace(string(out))
		}
	}
	if h, err := sourceHash("."); err == nil {
		p["source_sha256"] = h
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash identifies the program under test when no git metadata is
// available: a SHA-256 over the paths and contents of the module's Go
// sources and go.mod, outside the benchmark's own directory and build output.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// since is the wall time since t in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// Set-up is timed repeatedly across the whole run, interleaved with the
// measurement, and its median reported. One set-up takes well under a
// second; repetitions packed into a few seconds would all land in the same
// slow window of the machine, while repetitions spread over the run average
// over the same windows as the measurement.
const (
	// minSetupReps is the fewest repetitions a run's median rests on.
	minSetupReps = 8
	// setupEvery is the measurement time per repetition: a 25 s run times
	// about ten.
	setupEvery = 2500 * time.Millisecond
)

// setupTimer runs and times the set-up repetitions of one run.
type setupTimer struct {
	setup func() error
	secs  []float64     // each repetition's wall time in seconds
	spent time.Duration // all time spent on set-up, collections included
}

// rep runs one set-up. Before it, a garbage collection that also returns the
// freed memory to the system keeps earlier garbage out of its time, and
// makes its peak RSS that of the set-up alone rather than of whatever heap
// the job before it left. The same after it gives the measurement that
// follows a clean start.
func (t *setupTimer) rep() error {
	t0 := time.Now()
	debug.FreeOSMemory()
	t1 := time.Now()
	err := t.setup()
	t.secs = append(t.secs, since(t1))
	debug.FreeOSMemory()
	t.spent += time.Since(t0)
	return err
}

// due runs the set-ups owed after measured time of measurement: one to
// produce the run's inputs, then one per setupEvery.
func (t *setupTimer) due(measured time.Duration) error {
	for len(t.secs) < 1+int(measured/setupEvery) {
		if err := t.rep(); err != nil {
			return err
		}
	}
	return nil
}

// finish tops the repetitions up to minSetupReps and returns their median.
func (t *setupTimer) finish() (float64, error) {
	for len(t.secs) < minSetupReps {
		if err := t.rep(); err != nil {
			return 0, err
		}
	}
	return median(t.secs), nil
}

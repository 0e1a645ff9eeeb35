package experiments

import (
	"fmt"
	"math"
	"strings"

	"dropback"
	"dropback/internal/models"
	"dropback/internal/prune"
	"dropback/internal/stats"
)

// analysisRun is one method's trajectory telemetry on MNIST-100-100.
type analysisRun struct {
	Label     string
	Steps     []int
	Distances []float64
	Snapshots [][]float32
	SnapSteps []int
	FinalAcc  float64
	Slope     float64
	R2        float64
}

// weightOnly filters out variational logα tensors so VD snapshots are
// dimensionally comparable to the standard model's weight vector.
func weightOnly(name string) bool { return !strings.HasSuffix(name, "/logalpha") }

// runAnalysisSuite trains MNIST-100-100 five ways — baseline, DropBack 2k,
// DropBack 10k, magnitude .75, variational dropout — recording the L2
// diffusion distance each step and periodic weight snapshots (Figs 5 & 6
// share these runs).
func runAnalysisSuite(o Options) []analysisRun {
	train, val := mnistData(o)
	epochs := o.mnistEpochs()
	stepsPerEpoch := train.Len() / o.batchSize()
	snapEvery := epochs * stepsPerEpoch / 10
	if snapEvery < 1 {
		snapEvery = 1
	}
	base := dropback.TrainConfig{
		Epochs: epochs, BatchSize: o.batchSize(), Schedule: mnistSchedule(epochs),
		Seed: o.Seed, SnapshotEvery: 1, Progress: progress(o),
		SnapshotParams: weightOnly,
	}
	// SnapshotEvery=1 gives per-step diffusion; storing every snapshot
	// would be ~90k floats × hundreds of steps, so snapshots for PCA are
	// thinned separately below.
	type spec struct {
		label string
		mut   func(*dropback.TrainConfig)
		vdNet bool
	}
	specs := []spec{
		{"Baseline", func(c *dropback.TrainConfig) { c.Method = dropback.MethodBaseline }, false},
		{"DropBack 2k", func(c *dropback.TrainConfig) {
			c.Method = dropback.MethodDropBack
			c.Budget = 2000
			c.FreezeAfterEpoch = -1
		}, false},
		{"DropBack 10k", func(c *dropback.TrainConfig) {
			c.Method = dropback.MethodDropBack
			c.Budget = 10000
			c.FreezeAfterEpoch = -1
		}, false},
		{"Magnitude .75", func(c *dropback.TrainConfig) {
			c.Method = dropback.MethodMagnitude
			c.PruneFraction = 0.75
		}, false},
		{"VD Sparse", func(c *dropback.TrainConfig) {
			c.Method = dropback.MethodVariational
			c.KLScale = 4 / float32(train.Len()) // boosted: see RunTable3
		}, true},
	}
	runs := make([]analysisRun, 0, len(specs))
	for _, sp := range specs {
		cfg := base
		sp.mut(&cfg)
		var m *dropback.Model
		if sp.vdNet {
			m = mnist100100VD(o.Seed)
		} else {
			m = dropback.MNIST100100(o.Seed)
		}
		r := dropback.Train(m, train, val, cfg)
		run := analysisRun{
			Label:     sp.label,
			Steps:     r.DiffusionSteps,
			Distances: r.DiffusionDist,
			FinalAcc:  r.BestValAcc,
		}
		// Thin the stored snapshots to ~10 for PCA.
		for i := 0; i < len(r.Snapshots); i += snapEvery {
			run.Snapshots = append(run.Snapshots, r.Snapshots[i])
			run.SnapSteps = append(run.SnapSteps, r.SnapshotSteps[i])
		}
		run.Slope, run.R2 = logFit(r.DiffusionSteps, r.DiffusionDist)
		runs = append(runs, run)
	}
	return runs
}

// mnist100100VD builds the MNIST-100-100 topology with variational-dropout
// layers for the VD run.
func mnist100100VD(seed uint64) *dropback.Model {
	return models.NewMLP(models.MLPConfig{
		Name: "mnist100", In: 784, Hidden: []int{100, 100}, Classes: 10,
		Seed: seed, Factory: prune.Variational{},
	})
}

// logFit fits distance ~ a + b·log(step) over the recorded series by
// replaying it through the stats tracker's fitting helper, returning the
// slope and R² (the ultra-slow-diffusion goodness of fit).
func logFit(steps []int, dist []float64) (slope, r2 float64) {
	t := stats.NewDiffusion([]float32{0})
	for i, s := range steps {
		t.Record(s, []float32{float32(dist[i])})
	}
	return t.LogFit()
}

// Fig5Result holds the diffusion curves of the five regimes.
type Fig5Result struct {
	Runs []analysisRun
}

// Fig6Result holds the 3-D PCA projection of all runs' weight trajectories.
type Fig6Result struct {
	// Labels[i] names run i; Points[i] is that run's trajectory in the
	// shared 3-component PCA basis.
	Labels []string
	Points [][][3]float64
	// BaselineDropBackDist and BaselineMagDist are the mean 3-D distances
	// between the baseline trajectory and the DropBack 10k / magnitude
	// trajectories — the paper's claim is that DropBack stays much closer
	// to the baseline path than the other pruners.
	BaselineDropBackDist float64
	BaselineMagDist      float64
}

// RunFig5And6 performs the shared five training runs and derives both
// analysis figures.
func RunFig5And6(o Options) (Fig5Result, Fig6Result) {
	runs := runAnalysisSuite(o)
	f5 := Fig5Result{Runs: runs}

	// Fig 6: one PCA over all trajectories so the runs share a basis.
	var rows [][]float32
	counts := make([]int, len(runs))
	for i, r := range runs {
		counts[i] = len(r.Snapshots)
		rows = append(rows, r.Snapshots...)
	}
	f6 := Fig6Result{}
	if len(rows) >= 2 {
		proj := stats.PCAProject(rows, 3)
		idx := 0
		for i, r := range runs {
			pts := make([][3]float64, counts[i])
			for j := 0; j < counts[i]; j++ {
				p := proj.Projections[idx]
				for c := 0; c < 3 && c < len(p); c++ {
					pts[j][c] = p[c]
				}
				idx++
			}
			f6.Labels = append(f6.Labels, r.Label)
			f6.Points = append(f6.Points, pts)
		}
		f6.BaselineDropBackDist = meanTrajDist(f6.Points[0], f6.Points[2])
		f6.BaselineMagDist = meanTrajDist(f6.Points[0], f6.Points[3])
	}
	return f5, f6
}

// meanTrajDist averages pointwise 3-D distances between two trajectories
// (truncated to the shorter one).
func meanTrajDist(a, b [][3]float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		var d float64
		for c := 0; c < 3; c++ {
			diff := a[i][c] - b[i][c]
			d += diff * diff
		}
		sum += math.Sqrt(d)
	}
	return sum / float64(n)
}

// PrintFig5 renders the diffusion curves on a log-time axis.
func PrintFig5(o Options, r Fig5Result) {
	w := o.out()
	fmt.Fprintln(w, "== Figure 5: L2 diffusion distance vs training time (MNIST-100-100, log time scale) ==")
	var series []Series
	for _, run := range r.Runs {
		s := Series{Label: fmt.Sprintf("%s (%.2f%%)", run.Label, run.FinalAcc*100)}
		for i := range run.Steps {
			if run.Steps[i] < 1 {
				continue
			}
			s.X = append(s.X, float64(run.Steps[i]))
			s.Y = append(s.Y, run.Distances[i])
		}
		series = append(series, s)
	}
	asciiChart(w, "‖w_t − w_0‖ vs iteration", series, 14, 72, true)
	dumpSeriesCSV(o, "fig5", series)
	for _, run := range r.Runs {
		final := 0.0
		if len(run.Distances) > 0 {
			final = run.Distances[len(run.Distances)-1]
		}
		fmt.Fprintf(w, "  %-14s final distance %8.3f  log-slope %6.3f (R² %.3f)  acc %.2f%%\n",
			run.Label, final, run.Slope, run.R2, run.FinalAcc*100)
	}
}

// PrintFig6 renders the projected trajectories and the proximity metrics.
func PrintFig6(o Options, r Fig6Result) {
	w := o.out()
	fmt.Fprintln(w, "== Figure 6: PCA (3-D) of weight evolution ==")
	for i, label := range r.Labels {
		fmt.Fprintf(w, "%s trajectory (PC1, PC2, PC3):\n", label)
		for _, p := range r.Points[i] {
			fmt.Fprintf(w, "  (%9.3f, %9.3f, %9.3f)\n", p[0], p[1], p[2])
		}
	}
	fmt.Fprintf(w, "mean distance from baseline path: DropBack 10k %.3f vs Magnitude %.3f\n",
		r.BaselineDropBackDist, r.BaselineMagDist)
}

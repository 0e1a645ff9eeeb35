// Command dropback-infer loads a sparse deployment artifact (written by
// `dropback -export-sparse` or dropback.SaveSparse), reconstructs the model
// by regenerating every untracked weight from the seed, and evaluates it —
// the "device side" of the paper's deployment story.
//
// Usage:
//
//	dropback-infer -artifact model.dbsp -model mnist100 -seed 1
//
// The -model and -seed flags must match how the model was trained: the
// artifact stores only the deviating weights, so the architecture and
// regeneration seed come from the caller.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"dropback"
	"dropback/internal/nn"
	"dropback/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run holds every error path as a return instead of os.Exit, so the
// deferred cleanups (pprof profile stop, telemetry file close) always fire
// — an os.Exit on an error path used to leave truncated or empty profile
// and telemetry files behind.
func run() error {
	var (
		artifact  = flag.String("artifact", "", "path to a .dbsp sparse artifact (required)")
		sparseRun = flag.Bool("sparse", false, "also execute sparse-native (straight off the artifact) and report resident bytes and latency next to the dense path")
		model     = flag.String("model", "mnist100", "mnist100 | lenet300 | vggs-reduced | wrn-reduced | densenet-reduced")
		seed      = flag.Uint64("seed", 1, "model seed used at training time")
		samples   = flag.Int("samples", 500, "synthetic evaluation samples")
		dataSeed  = flag.Uint64("data-seed", 1, "synthetic dataset seed")
		telJSONL  = flag.String("telemetry", "", "write a JSONL stream of per-layer inference timings to this path")
		telTable  = flag.Bool("telemetry-summary", false, "print the per-layer inference timing table")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this path")
	)
	flag.Parse()
	if *artifact == "" {
		return errors.New("missing -artifact")
	}

	if *cpuProf != "" {
		stop, err := telemetry.StartCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	art, err := dropback.LoadSparse(*artifact)
	if err != nil {
		return err
	}
	m, shape, err := dropback.ModelByName(*model, *seed, false)
	if err != nil {
		return err
	}
	if err := art.Apply(m); err != nil {
		return err
	}
	fmt.Printf("artifact: %d of %d weights stored (%.1fx compression), %d bytes\n",
		art.StoredWeights(), art.TotalParams, art.CompressionRatio(), art.StorageBytes())

	var collector *telemetry.Collector
	var telFile *os.File
	if *telJSONL != "" || *telTable {
		opts := telemetry.CollectorOptions{Label: *model + "/infer"}
		if *telJSONL != "" {
			f, err := os.Create(*telJSONL)
			if err != nil {
				return err
			}
			defer f.Close()
			telFile = f
			opts.Sink = f
		}
		collector = telemetry.NewCollector(opts)
		nn.Instrument(m.Net, collector)
	}

	var ds *dropback.Dataset
	if len(shape) > 1 {
		ds = dropback.CIFARLikeSized(*samples, 12, *dataSeed)
	} else {
		ds = dropback.MNISTLike(*samples, *dataSeed).Flatten()
	}
	loss, acc := dropback.Evaluate(m, ds, 64)
	fmt.Printf("evaluation on %d synthetic samples: loss %.4f, accuracy %.2f%%\n",
		ds.Len(), loss, acc*100)

	conf := dropback.EvaluateDetailed(m, ds, 64)
	fmt.Println(conf.String())
	fmt.Println("most confused class pairs:")
	for _, p := range conf.MostConfused(3) {
		fmt.Printf("  actual %d -> predicted %d: %d times\n", p.Actual, p.Predicted, p.Count)
	}

	if *sparseRun {
		proto, _, err := dropback.ModelByName(*model, *seed, false)
		if err != nil {
			return err
		}
		if err := sparseSideBySide(m, proto, art, ds); err != nil {
			return err
		}
	}

	if collector != nil {
		nn.Instrument(m.Net, nil)
		if err := collector.Flush(); err != nil {
			return err
		}
		if telFile != nil {
			if err := telFile.Close(); err != nil {
				return err
			}
			fmt.Printf("telemetry stream written to %s\n", *telJSONL)
		}
		if *telTable {
			collector.WriteSummary(os.Stdout)
		}
	}
	if *memProf != "" {
		if err := telemetry.WriteHeapProfile(*memProf); err != nil {
			return err
		}
	}
	return nil
}

// sparseSideBySide compiles the artifact into a sparse-native plan and
// reports resident weight bytes and per-batch latency next to the dense
// path, verifying on the way that both paths produce bit-identical logits.
// dense must already have the artifact applied; proto is a fresh prototype
// for compilation.
func sparseSideBySide(dense, proto *dropback.Model, art *dropback.SparseArtifact, ds *dropback.Dataset) error {
	plan, err := dropback.CompileSparse(proto, art)
	if err != nil {
		return err
	}
	ex := dropback.NewSparseExecutor(plan)

	const batch = 64
	var denseTime, sparseTime time.Duration
	batches := 0
	for lo := 0; lo < ds.Len(); lo += batch {
		hi := lo + batch
		if hi > ds.Len() {
			hi = ds.Len()
		}
		x, _ := ds.Batch(lo, hi)
		t0 := time.Now()
		want := dense.Net.Forward(x, false)
		denseTime += time.Since(t0)
		t0 = time.Now()
		got := ex.Infer(x)
		sparseTime += time.Since(t0)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				return fmt.Errorf("sparse output diverges from dense at batch %d element %d: %g vs %g",
					batches, i, got.Data[i], want.Data[i])
			}
		}
		batches++
	}

	fmt.Println("sparse-native execution (computing straight off the artifact):")
	fmt.Printf("  compression: %.1fx (%d of %d weights stored)\n",
		art.CompressionRatio(), art.StoredWeights(), art.TotalParams)
	fmt.Printf("  resident weight bytes: sparse %d shared vs dense %d per replica (%.1fx lower)\n",
		plan.WeightBytes(), plan.DenseWeightBytes(),
		float64(plan.DenseWeightBytes())/float64(plan.WeightBytes()))
	fmt.Printf("  latency over %d batches of <=%d: dense %v, sparse %v (%.2fx)\n",
		batches, batch, denseTime.Round(time.Microsecond), sparseTime.Round(time.Microsecond),
		float64(sparseTime)/float64(denseTime))
	traffic := ex.WeightTraffic()
	fmt.Printf("  weight traffic: %d tracked reads, %d regenerations (outputs bit-identical to dense)\n",
		traffic.DRAMReads, traffic.Regenerations)
	return nil
}

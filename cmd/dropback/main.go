// Command dropback trains a model with any of the five regimes the paper
// evaluates and prints the result row (validation error, compression, best
// epoch) plus DropBack telemetry when applicable.
//
// Usage:
//
//	dropback -model mnist100 -method dropback -budget 10000 -epochs 10
//	dropback -model lenet300 -method baseline
//	dropback -model vggs-reduced -method magnitude -prune-fraction 0.8
//	dropback -model mnist100 -method dropback -budget 1500 -freeze 3 -v
//
// With -mnist-images/-mnist-labels pointing at real MNIST IDX files the
// MLP models train on real data; otherwise the synthetic generator is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dropback"
	"dropback/internal/dist"
	"dropback/internal/optim"
	"dropback/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run returns on every error path instead of calling os.Exit, so deferred
// cleanup (the pprof CPU-profile stop) always runs; main owns the only
// os.Exit.
func run() error {
	var (
		model    = flag.String("model", "mnist100", "mnist100 | lenet300 | vggs-reduced | wrn-reduced | densenet-reduced")
		method   = flag.String("method", "dropback", "baseline | dropback | magnitude | variational | slimming")
		budget   = flag.Int("budget", 10000, "DropBack tracked-weight budget")
		freeze   = flag.Int("freeze", -1, "freeze tracked set after this epoch (-1: never)")
		sparseT  = flag.Bool("sparse-train", false, "DropBack sparse-native training: optimizer state scales with the budget, bit-identical results")
		pruneF   = flag.Float64("prune-fraction", 0.75, "magnitude/slimming prune fraction")
		epochs   = flag.Int("epochs", 10, "training epochs")
		batch    = flag.Int("batch", 32, "mini-batch size")
		workers  = flag.Int("train-workers", 1, "data-parallel training workers (results are bit-identical at any count)")
		distRank = flag.Int("dist-rank", 0, "multi-node training: this node's rank (with -dist-peers)")
		distPeer = flag.String("dist-peers", "", "multi-node training: comma-separated host:port of every rank, index = rank (enables the dist executor; results are bit-identical to a single-node run)")
		distList = flag.String("dist-listen", "", "multi-node training: local bind address for incoming peers (defaults to the -dist-peers entry for this rank)")
		distCtTO = flag.Duration("dist-connect-timeout", 10*time.Second, "multi-node training: mesh build timeout (covers peers still starting)")
		distStTO = flag.Duration("dist-step-timeout", 30*time.Second, "multi-node training: per-step exchange deadline (a stalled peer trips it)")
		samples  = flag.Int("samples", 2000, "synthetic dataset size")
		lr       = flag.Float64("lr", 0.1, "initial learning rate (x0.5 step decay)")
		seed     = flag.Uint64("seed", 1, "random seed")
		verbose  = flag.Bool("v", false, "per-epoch progress")
		images   = flag.String("mnist-images", "", "path to MNIST IDX image file (optional)")
		labels   = flag.String("mnist-labels", "", "path to MNIST IDX label file (optional)")
		saveCkpt = flag.String("save-checkpoint", "", "write a dense checkpoint of the trained model to this path")
		loadCkpt = flag.String("load-checkpoint", "", "initialize the model from a dense checkpoint before training")
		ckptDir  = flag.String("checkpoint-dir", "", "write rotating crash-safe training checkpoints into this directory")
		ckptEv   = flag.Int("checkpoint-every", 1, "with -checkpoint-dir, checkpoint every N epochs")
		ckptKeep = flag.Int("checkpoint-keep", 3, "with -checkpoint-dir, keep this many checkpoints (negative: all)")
		resume   = flag.Bool("resume", false, "with -checkpoint-dir, resume from the newest valid checkpoint (corrupt files are skipped)")
		retries  = flag.Int("recovery-retries", 0, "roll back and retry with halved LR on NaN/Inf up to N times (0: divergence aborts)")
		exportSp = flag.String("export-sparse", "", "write the sparse deployment artifact to this path")
		telJSONL = flag.String("telemetry", "", "write a JSONL telemetry stream (layer timings, step samples, gauges) to this path")
		telTable = flag.Bool("telemetry-summary", false, "print the telemetry summary table after training")
		telEvery = flag.Int("telemetry-step-every", 1, "thin per-step JSONL records to every Nth step")
		benchOut = flag.String("bench-out", "", "write BENCH_telemetry.json benchmark entries to this path")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this path")
	)
	flag.Parse()

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

	variational := *method == "variational"
	m, shape, err := dropback.ModelByName(*model, *seed, variational)
	if err != nil {
		return err
	}
	imageModel := len(shape) > 1

	if *loadCkpt != "" {
		if err := dropback.LoadCheckpoint(*loadCkpt, m); err != nil {
			return err
		}
		fmt.Printf("resumed from checkpoint %s\n", *loadCkpt)
	}

	ds, err := buildDataset(*model, imageModel, *samples, *seed, *images, *labels)
	if err != nil {
		return err
	}
	train, val := ds.Split(ds.Len() * 4 / 5)

	cfg := dropback.TrainConfig{
		Epochs: *epochs, BatchSize: *batch, Seed: *seed, Patience: 5,
		Schedule:           optim.StepDecay{Initial: float32(*lr), Factor: 0.5, Every: max(1, *epochs/5)},
		MaxRecoveryRetries: *retries,
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *sparseT && *method != "dropback" {
		return fmt.Errorf("-sparse-train requires -method dropback")
	}
	if *workers > 1 {
		cfg.Workers = *workers
	}
	if *distPeer != "" {
		peers := strings.Split(*distPeer, ",")
		listen := *distList
		if listen == "" && *distRank >= 0 && *distRank < len(peers) {
			listen = peers[*distRank]
		}
		cfg.Dist = &dist.Config{
			Rank:           *distRank,
			Peers:          peers,
			Listen:         listen,
			ConnectTimeout: *distCtTO,
			StepTimeout:    *distStTO,
		}
	}
	if *ckptDir != "" {
		cfg.Checkpoint = &dropback.CheckpointSpec{
			Dir: *ckptDir, Every: *ckptEv, Keep: *ckptKeep, Resume: *resume,
		}
	}
	if *verbose {
		cfg.Progress = func(s string) { fmt.Println(s) }
	}
	switch *method {
	case "baseline":
		cfg.Method = dropback.MethodBaseline
	case "dropback":
		cfg.Method = dropback.MethodDropBack
		cfg.Budget = *budget
		cfg.FreezeAfterEpoch = *freeze
		cfg.SparseTrain = *sparseT
	case "magnitude":
		cfg.Method = dropback.MethodMagnitude
		cfg.PruneFraction = *pruneF
	case "variational":
		cfg.Method = dropback.MethodVariational
		cfg.KLScale = 1 / float32(train.Len())
	case "slimming":
		cfg.Method = dropback.MethodSlimming
		cfg.SlimLambda = 1e-4
		cfg.SlimPruneFraction = *pruneF
		cfg.SlimPruneAtEpoch = *epochs / 2
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	var collector *telemetry.Collector
	var telFile *os.File
	if *telJSONL != "" || *telTable || *benchOut != "" {
		opts := telemetry.CollectorOptions{StepEvery: *telEvery, Label: *model + "/" + *method}
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
		cfg.Telemetry = collector
	}

	fmt.Printf("model %s (%d params), method %s, %d train / %d val samples\n",
		*model, m.Set.Total(), cfg.Method, train.Len(), val.Len())
	res, err := dropback.TrainE(m, train, val, cfg)
	if err != nil {
		return err
	}
	if res.Rollbacks > 0 {
		fmt.Printf("divergence recovery: %d rollback(s), final LR scale %.4g\n", res.Rollbacks, res.LRScale)
	}
	if res.Diverged {
		fmt.Println("training diverged")
	}
	fmt.Printf("best epoch %d: validation error %.2f%%, compression %.2fx\n",
		res.BestEpoch, res.BestValErr*100, res.Compression)
	if cfg.Method == dropback.MethodDropBack {
		fmt.Printf("regenerations: %d\n", res.Regenerations)
		fmt.Println("per-layer retention:")
		for _, r := range res.Retention {
			fmt.Printf("  %-24s %7d / %7d\n", r.Name, r.Retained, r.Total)
		}
	}
	if *saveCkpt != "" {
		if err := dropback.SaveCheckpoint(*saveCkpt, m); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", *saveCkpt)
	}
	if *exportSp != "" {
		art := dropback.CompressSparse(m)
		if err := dropback.SaveSparse(*exportSp, art); err != nil {
			return err
		}
		fmt.Printf("sparse artifact written to %s: %d weights, %d bytes (dense %d bytes)\n",
			*exportSp, art.StoredWeights(), art.StorageBytes(), art.DenseStorageBytes())
	}
	if collector != nil {
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
		if *benchOut != "" {
			prefix := *model + "/"
			if err := telemetry.WriteBench(*benchOut, collector.BenchEntries(prefix)); err != nil {
				return err
			}
			fmt.Printf("benchmark entries written to %s\n", *benchOut)
		}
	}
	if *memProf != "" {
		if err := telemetry.WriteHeapProfile(*memProf); err != nil {
			return err
		}
	}
	return nil
}

// buildDataset returns the right dataset for the model: real MNIST when IDX
// paths are supplied, synthetic otherwise.
func buildDataset(model string, imageModel bool, samples int, seed uint64, images, labels string) (*dropback.Dataset, error) {
	if images != "" || labels != "" {
		if images == "" || labels == "" {
			return nil, fmt.Errorf("need both -mnist-images and -mnist-labels")
		}
		if imageModel {
			return nil, fmt.Errorf("real MNIST loading supports the MLP models")
		}
		ds, err := dropback.LoadMNIST(images, labels)
		if err != nil {
			return nil, err
		}
		return ds.Flatten(), nil
	}
	if imageModel {
		// The reduced conv models in this CLI are built for 12×12 inputs.
		return dropback.CIFARLikeSized(samples, 12, seed), nil
	}
	if !strings.HasPrefix(model, "mnist") && model != "lenet300" {
		return nil, fmt.Errorf("no dataset rule for model %q", model)
	}
	return dropback.MNISTLike(samples, seed).Flatten(), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

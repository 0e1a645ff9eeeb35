// Package dropback is the public API of this DropBack reproduction — the
// MLSys 2019 paper "Full deep neural network training on a pruned weight
// budget" (Golub, Lemieux & Lis). It re-exports the pieces a downstream
// user needs: dataset construction, the paper's model zoo, and a Trainer
// that runs the training regimes the paper evaluates (baseline SGD,
// DropBack, iterative magnitude pruning, variational dropout, network
// slimming, plus the DSD regularizer §2.2 contrasts against) with the
// paper's telemetry (accumulated-gradient
// distributions, tracked-set swap counts, L2 diffusion, weight-trajectory
// snapshots, per-layer retention).
//
// The deployment side lives in deploy.go: sparse artifacts
// (CompressSparse/SaveSparse/LoadSparse), 1-8-bit quantization
// (QuantizeSparse), checkpoints, and batched inference serving
// (NewServer/NewServeHandler) over a pool of artifact-seeded model
// replicas — one replica per concurrent forward pass, because a Model is
// single-goroutine-only.
//
// Quickstart:
//
//	ds := dropback.MNISTLike(2000, 1)
//	train, val := ds.Flatten().Split(1600)
//	model := dropback.MNIST100100(1)
//	res := dropback.Train(model, train, val, dropback.TrainConfig{
//		Method: dropback.MethodDropBack,
//		Budget: 10000, Epochs: 10, BatchSize: 64, Seed: 1,
//	})
//	fmt.Printf("err=%.2f%% compression=%.1fx\n", res.BestValErr*100, res.Compression)
package dropback

import (
	"fmt"

	"dropback/internal/data"
	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/prune"
	"dropback/internal/telemetry"
)

// Model is a network body plus loss head and flat parameter space.
type Model = nn.Model

// Dataset is an in-memory labeled dataset.
type Dataset = data.Dataset

// TelemetryRecorder receives training telemetry (per-layer span timings,
// step/epoch samples, counters, gauges); set TrainConfig.Telemetry to one.
type TelemetryRecorder = telemetry.Recorder

// TelemetryCollector is the standard recorder: it aggregates layer timings
// and step latency quantiles, and can stream JSONL, print a summary table,
// and export benchmark entries.
type TelemetryCollector = telemetry.Collector

// TelemetryOptions configures a TelemetryCollector.
type TelemetryOptions = telemetry.CollectorOptions

// NewTelemetryCollector builds an enabled telemetry collector.
func NewTelemetryCollector(opts TelemetryOptions) *TelemetryCollector {
	return telemetry.NewCollector(opts)
}

// InstrumentModel installs (or, with a nil recorder, removes) telemetry
// instrumentation on every layer container of the model. Train does this
// automatically for TrainConfig.Telemetry; call it directly to time
// inference-only flows such as Evaluate.
func InstrumentModel(m *Model, rec TelemetryRecorder) { nn.Instrument(m.Net, rec) }

// MNISTLike generates the synthetic MNIST stand-in dataset (28×28×1,
// 10 classes); see DESIGN.md §1 for the substitution rationale.
func MNISTLike(samples int, seed uint64) *Dataset {
	return data.Generate(data.MNISTLike(samples, seed))
}

// CIFARLike generates the synthetic CIFAR-10 stand-in dataset (32×32×3,
// 10 classes).
func CIFARLike(samples int, seed uint64) *Dataset {
	return data.Generate(data.CIFARLike(samples, seed))
}

// CIFARLikeSized generates a CIFAR-like dataset at a custom square image
// size, matching the reduced convolutional models used for CPU-scale
// experiments.
func CIFARLikeSized(samples, size int, seed uint64) *Dataset {
	cfg := data.CIFARLike(samples, seed)
	cfg.Size = size
	if cfg.MaxShift >= size/4 {
		cfg.MaxShift = size / 4
	}
	return data.Generate(cfg)
}

// LoadMNIST loads the real MNIST IDX file pair if available.
func LoadMNIST(imagesPath, labelsPath string) (*Dataset, error) {
	return data.LoadMNIST(imagesPath, labelsPath)
}

// LoadCIFAR10 loads real CIFAR-10 binary batch files if available.
func LoadCIFAR10(paths ...string) (*Dataset, error) {
	return data.LoadCIFAR10(paths...)
}

// LeNet300100 builds the paper's LeNet-300-100 MLP (≈266.6k weights).
func LeNet300100(seed uint64) *Model { return models.LeNet300100(seed) }

// MNIST100100 builds the paper's 90k-weight MNIST-100-100 MLP.
func MNIST100100(seed uint64) *Model { return models.MNIST100100(seed) }

// VGGS builds the full 15M-parameter VGG-S model.
func VGGS(seed uint64) *Model { return models.NewVGGS(models.VGGSPaper(seed)) }

// VGGSReduced builds a width-reduced VGG-S for CPU-scale experiments.
// Pass variational=true to instantiate it with variational-dropout layers
// for the VD baseline.
func VGGSReduced(inputSize, width int, seed uint64, variational bool) *Model {
	var f prune.LayerFactory
	if variational {
		f = prune.Variational{}
	}
	return models.NewVGGS(models.VGGSReduced(inputSize, width, seed, f))
}

// WRN2810 builds the full ≈36M-parameter WRN-28-10.
func WRN2810(seed uint64) *Model { return models.NewWRN(models.WRN2810Paper(seed)) }

// WRNReduced builds a depth/width-reduced wide residual network.
func WRNReduced(depth, widen int, seed uint64, variational bool) *Model {
	var f prune.LayerFactory
	if variational {
		f = prune.Variational{}
	}
	return models.NewWRN(models.WRNReduced(depth, widen, seed, f))
}

// DenseNet builds the paper-scale (≈2.8M parameter) DenseNet.
func DenseNet(seed uint64) *Model { return models.NewDenseNet(models.DenseNetPaper(seed)) }

// DenseNetReduced builds a depth/growth-reduced DenseNet.
func DenseNetReduced(depth, growth int, seed uint64, variational bool) *Model {
	var f prune.LayerFactory
	if variational {
		f = prune.Variational{}
	}
	return models.NewDenseNet(models.DenseNetReduced(depth, growth, seed, f))
}

// ModelByName builds one of the five models the command-line tools train,
// evaluate and serve (mnist100, lenet300, vggs-reduced, wrn-reduced,
// densenet-reduced) and returns it with its per-sample input shape: [784]
// for the MLPs, [3, 12, 12] for the reduced convolutional models, which are
// sized for 12×12 inputs. variational asks for variational-dropout layers,
// which only the convolutional models have here.
func ModelByName(name string, seed uint64, variational bool) (*Model, []int, error) {
	mlp, image := []int{784}, []int{3, 12, 12}
	switch name {
	case "mnist100":
		if variational {
			return nil, nil, fmt.Errorf("use vggs-reduced for a variational demo; mnist100 VD is exercised by the experiments harness")
		}
		return MNIST100100(seed), mlp, nil
	case "lenet300":
		if variational {
			return nil, nil, fmt.Errorf("lenet300 has no variational variant in this CLI")
		}
		return LeNet300100(seed), mlp, nil
	case "vggs-reduced":
		return VGGSReduced(12, 8, seed, variational), image, nil
	case "wrn-reduced":
		return WRNReduced(10, 2, seed, variational), image, nil
	case "densenet-reduced":
		return DenseNetReduced(13, 6, seed, variational), image, nil
	default:
		return nil, nil, fmt.Errorf("unknown model %q", name)
	}
}

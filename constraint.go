package dropback

import (
	"fmt"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/prune"
)

// constraint is the one seam between TrainE and a training method. Every
// method is a rule applied around the same SGD step, so the trainer calls
// the same hooks in the same order for all of them: BeginEpoch, Update once
// per step, then EndEpoch. *core.DropBack and the internal/prune types
// implement it directly; sgdOnly is MethodBaseline's.
type constraint interface {
	// BeginEpoch runs before the first step of the zero-based epoch.
	BeginEpoch(epoch int)
	// Update runs after the backward pass (and the finite-gradient check):
	// it adds the method's gradient terms, applies opt's step, then the
	// method's projection. It returns the number of weights that entered
	// the tracked set, or −1 for methods without one.
	Update(opt *optim.SGD) int
	// EndEpoch runs after the last step of the epoch, before evaluation.
	EndEpoch(epoch int)
	// Resume re-derives state the checkpoint does not carry, once the run
	// state of a checkpoint taken after epochs completed epochs is restored.
	Resume(epochs int)
	// CompressionRatio is the final state's weight-compression factor.
	CompressionRatio() float64
}

// newConstraint builds the configured method's constraint over the model —
// the one place training dispatches on cfg.Method.
func newConstraint(m *Model, cfg TrainConfig) (constraint, error) {
	switch cfg.Method {
	case MethodDropBack:
		// Every tensor starts on dense storage; under SparseTrain, newRun
		// moves the weight matrices to CSR storage.
		return core.New(m.Set, core.Config{
			Budget:             cfg.Budget,
			FreezeAfterEpoch:   cfg.FreezeAfterEpoch,
			DisableSwapHistory: cfg.DisableSwapHistory,
		}), nil
	case MethodMagnitude:
		return prune.NewMagnitude(m.Set, cfg.PruneFraction), nil
	case MethodVariational:
		vd := prune.NewVD(m.Set, m.Net, cfg.KLScale)
		if vd.LayerCount() == 0 {
			return nil, fmt.Errorf("MethodVariational requires a model built with variational layers")
		}
		return vd, nil
	case MethodSlimming:
		return prune.NewSlimming(m.Set, m.Net, cfg.SlimLambda, cfg.SlimPruneFraction, cfg.SlimPruneAtEpoch), nil
	case MethodDSD:
		return prune.NewDSD(m.Set, cfg.DSDSparseFraction, cfg.DSDSparseStart, cfg.DSDSparseEnd), nil
	}
	return sgdOnly{m.Set}, nil
}

// sgdOnly is MethodBaseline's constraint: the plain SGD step and nothing
// else.
type sgdOnly struct{ set *nn.ParamSet }

func (sgdOnly) BeginEpoch(int) {}
func (c sgdOnly) Update(opt *optim.SGD) int {
	opt.Step(c.set)
	return -1
}
func (sgdOnly) EndEpoch(int)              {}
func (sgdOnly) Resume(int)                {}
func (sgdOnly) CompressionRatio() float64 { return 1 }

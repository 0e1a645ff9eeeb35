// Package optim provides the optimizers and learning-rate schedules used by
// the paper's training runs: plain stochastic gradient descent (the paper
// deliberately avoids momentum and adaptive methods, which would cost extra
// weight-sized state memory) and the exponential step-decay schedule.
package optim

import (
	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// SGD applies the plain stochastic-gradient-descent update
// w ← w − lr·∇w. It keeps no per-parameter state, matching the paper's
// choice: "all other optimization strategies cost significant extra memory".
type SGD struct {
	// LR is the current learning rate, usually driven by a Schedule.
	LR float32
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float32) *SGD { return &SGD{LR: lr} }

// Step applies one update to every parameter in the set using the gradients
// accumulated by the latest backward pass.
func (o *SGD) Step(set *nn.ParamSet) {
	for _, p := range set.Params() {
		o.StepParam(p)
	}
}

// StepParam applies one update to a single parameter.
func (o *SGD) StepParam(p *nn.Param) {
	tensor.AXPY(-o.LR, p.Grad, p.Value)
}

// Schedule maps an epoch index to a learning rate.
type Schedule interface {
	// At returns the learning rate for the given zero-based epoch.
	At(epoch int) float32
}

// StepDecay multiplies the initial rate by Factor every Every epochs —
// the paper's schedule (initial 0.4, ×0.5 decays). MaxDecays, if positive,
// caps the number of decays applied ("exponentially reduced four times").
type StepDecay struct {
	Initial   float32
	Factor    float32
	Every     int
	MaxDecays int
}

// At implements Schedule.
func (s StepDecay) At(epoch int) float32 {
	if s.Every <= 0 {
		return s.Initial
	}
	decays := epoch / s.Every
	if s.MaxDecays > 0 && decays > s.MaxDecays {
		decays = s.MaxDecays
	}
	lr := s.Initial
	for i := 0; i < decays; i++ {
		lr *= s.Factor
	}
	return lr
}

// Constant is a flat learning-rate schedule.
type Constant float32

// At implements Schedule.
func (c Constant) At(epoch int) float32 { return float32(c) }

// PaperMNIST returns the MNIST schedule from §3: initial rate 0.4,
// exponentially reduced four times by a factor of 0.5 over up-to-100-epoch
// training (a decay every 20 epochs).
func PaperMNIST() StepDecay {
	return StepDecay{Initial: 0.4, Factor: 0.5, Every: 20, MaxDecays: 4}
}

// PaperCIFAR returns the CIFAR-10 schedule from §3: initial rate 0.4 decayed
// ×0.5 every 25 epochs.
func PaperCIFAR() StepDecay {
	return StepDecay{Initial: 0.4, Factor: 0.5, Every: 25}
}

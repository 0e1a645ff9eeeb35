// Tracked-set-only SGD: the sparse-native training path updates the k
// tracked weights in place (CSR value arrays) instead of walking dense
// parameter tensors. The update expression is kept textually identical to
// tensor.AXPY's body so the result is bit-equal to the dense optimizer —
// Go never fuses float32 multiply-adds, so `v + (-lr)*g` is the same two
// rounding steps in both paths.
package optim

// TrackedSGD applies w ← w − lr·∇w to explicit value/gradient slices (the
// tracked set) rather than a dense nn.ParamSet. Like SGD it is stateless.
type TrackedSGD struct {
	// LR is the current learning rate, usually driven by a Schedule.
	LR float32
}

// StepTracked updates vals[i] += (-LR)·grads[i] for every tracked entry —
// the exact per-element operation tensor.AXPY(-LR, grad, value) performs on
// the dense path.
func (o *TrackedSGD) StepTracked(vals, grads []float32) {
	alpha := -o.LR
	for i := range vals {
		vals[i] += alpha * grads[i]
	}
}

// Update returns v + (-LR)·g for a single weight: the scalar form used by
// the tracked-set engine's merge walks, bit-equal to StepTracked and to the
// dense AXPY.
func (o *TrackedSGD) Update(v, g float32) float32 {
	return v + -o.LR*g
}

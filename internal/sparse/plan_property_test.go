package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dropback/internal/nn"
	"dropback/internal/sparse"
)

// randomStack builds a random frozen-inference model: either an MLP or a
// conv stack, with bias/no-bias, batch norm, PReLU, pooling, dropout, and
// residual blocks drawn at random. It returns the model and the per-sample
// input shape.
func randomStack(rng *rand.Rand, seed uint64) (*nn.Model, []int) {
	if rng.Intn(2) == 0 {
		return randomMLP(rng, seed)
	}
	return randomConvNet(rng, seed)
}

func randomMLP(rng *rand.Rand, seed uint64) (*nn.Model, []int) {
	in := 4 + rng.Intn(29)
	seq := nn.NewSequential("prop-mlp")
	cur := in
	layers := 1 + rng.Intn(3)
	for i := 0; i < layers; i++ {
		out := 3 + rng.Intn(14)
		name := fmt.Sprintf("fc%d", i)
		if rng.Intn(4) == 0 {
			seq.Append(nn.NewLinearNoBias(name, seed, cur, out))
		} else {
			seq.Append(nn.NewLinear(name, seed, cur, out))
		}
		switch rng.Intn(4) {
		case 0:
			seq.Append(nn.NewBatchNorm(name+"_bn", seed, out), nn.NewReLU(name+"_relu"))
		case 1:
			seq.Append(nn.NewPReLU(name+"_prelu", seed))
		case 2:
			seq.Append(nn.NewReLU(name+"_relu"), nn.NewDropout(name+"_drop", seed, 0.5))
		default:
			seq.Append(nn.NewReLU(name + "_relu"))
		}
		cur = out
	}
	seq.Append(nn.NewLinear("head", seed, cur, 2+rng.Intn(6)))
	return nn.NewModel(seq, seed), []int{in}
}

func randomConvNet(rng *rand.Rand, seed uint64) (*nn.Model, []int) {
	inC := 1 + rng.Intn(3)
	inSide := 6 + 2*rng.Intn(3) // 6, 8, 10
	side := inSide
	seq := nn.NewSequential("prop-conv")
	cur := inC
	blocks := 1 + rng.Intn(2)
	for i := 0; i < blocks; i++ {
		out := 2 + rng.Intn(5)
		name := fmt.Sprintf("conv%d", i)
		if rng.Intn(3) == 0 {
			seq.Append(nn.NewConv2DNoBias(name, seed, cur, out, 3, 1, 1))
		} else {
			seq.Append(nn.NewConv2D(name, seed, cur, out, 3, 1, 1))
		}
		switch rng.Intn(3) {
		case 0:
			seq.Append(nn.NewBatchNorm(name+"_bn", seed, out))
		case 1:
			// A same-shape residual conv block stresses the compiled containers.
			body := nn.NewSequential(name+"_resbody",
				nn.NewConv2D(name+"_res", seed, out, out, 3, 1, 1),
				nn.NewReLU(name+"_resrelu"))
			seq.Append(nn.NewResidual(name+"_res", body, nn.NewIdentity(name+"_short")))
		}
		seq.Append(nn.NewReLU(name + "_relu"))
		if rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				seq.Append(nn.NewMaxPool2D(name+"_pool", 2, 2))
			} else {
				seq.Append(nn.NewAvgPool2D(name+"_pool", 2, 2))
			}
			side /= 2
		}
		cur = out
	}
	classes := 2 + rng.Intn(6)
	if rng.Intn(2) == 0 {
		seq.Append(nn.NewGlobalAvgPool2D("gap"), nn.NewLinear("head", seed, cur, classes))
	} else {
		seq.Append(nn.NewFlatten("flatten"), nn.NewLinear("head", seed, cur*side*side, classes))
	}
	return nn.NewModel(seq, seed), []int{inC, inSide, inSide}
}

// TestPropertySparseForwardMatchesDense fuzzes random model stacks ×
// compression ratios × batch sizes and asserts the sparse-native forward is
// byte-equal to Artifact.Apply followed by a dense forward. It rides the
// repo-wide `go test -race ./...` job, so the whole matrix also runs under
// the race detector.
func TestPropertySparseForwardMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(1 + rng.Intn(1000))
		stackRng := rand.New(rand.NewSource(rng.Int63()))
		trained, shape := randomStack(stackRng, seed)

		// Perturb a random fraction: 0.02 ≈ the paper's compression regime,
		// up to 0.5 ≈ barely compressed.
		fraction := []float64{0.02, 0.1, 0.5}[trial%3]
		perturb(trained, fraction, stackRng.Int63())
		art := sparse.Compress(trained)

		fresh := nn.NewModel(cloneLayer(trained.Net, seed), seed)
		if err := art.Apply(fresh); err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		proto := nn.NewModel(cloneLayer(trained.Net, seed), seed)
		plan, err := sparse.Compile(proto, art)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		ex := sparse.NewExecutor(plan)

		for _, n := range []int{1, 3, 8} {
			x := input(stackRng.Int63(), append([]int{n}, shape...)...)
			want := fresh.Net.Forward(x, false)
			got := ex.Infer(x)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("trial %d (fraction %.2f, batch %d): output[%d] %g != dense %g",
						trial, fraction, n, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// cloneLayer rebuilds a fresh (initialization-valued) copy of the layer
// tree, reusing each layer's own constructor so parameter registration
// order — and therefore the global flat index space — is identical.
func cloneLayer(l nn.Layer, seed uint64) nn.Layer {
	switch t := l.(type) {
	case *nn.Sequential:
		children := make([]nn.Layer, 0, len(t.Layers()))
		for _, c := range t.Layers() {
			children = append(children, cloneLayer(c, seed))
		}
		return nn.NewSequential(t.Name(), children...)
	case *nn.Residual:
		return nn.NewResidual(t.Name(), cloneLayer(t.Body, seed), cloneLayer(t.Shortcut, seed))
	case *nn.Identity:
		return nn.NewIdentity(t.Name())
	case *nn.Flatten:
		return nn.NewFlatten(t.Name())
	case *nn.ReLU:
		return nn.NewReLU(t.Name())
	case *nn.Dropout:
		return nn.NewDropout(t.Name(), seed, 0.5)
	case *nn.MaxPool2D:
		return nn.NewMaxPool2D(t.Name(), t.K, t.Stride)
	case *nn.AvgPool2D:
		return nn.NewAvgPool2D(t.Name(), t.K, t.Stride)
	case *nn.GlobalAvgPool2D:
		return nn.NewGlobalAvgPool2D(t.Name())
	case *nn.PReLU:
		return nn.NewPReLU(t.Name(), seed)
	case *nn.BatchNorm:
		return nn.NewBatchNorm(t.Name(), seed, t.C)
	case *nn.Linear:
		if t.B == nil {
			return nn.NewLinearNoBias(t.Name(), seed, t.In, t.Out)
		}
		return nn.NewLinear(t.Name(), seed, t.In, t.Out)
	case *nn.Conv2D:
		if t.B == nil {
			return nn.NewConv2DNoBias(t.Name(), seed, t.InC, t.OutC, t.KH, t.Stride, t.Pad)
		}
		return nn.NewConv2D(t.Name(), seed, t.InC, t.OutC, t.KH, t.Stride, t.Pad)
	default:
		panic(fmt.Sprintf("cloneLayer: unsupported %T", l))
	}
}

package nn_test

import (
	"math"
	"sync"
	"testing"

	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/prune"
	"dropback/internal/tensor"
)

// replicaModels covers every nn layer type: Linear, BatchNorm, PReLU and
// Dropout in the MLP; Conv2D, pooling, Flatten and Dropout in VGG-S;
// Residual, Identity and GlobalAvgPool2D in WRN; DenseBlock in DenseNet.
var replicaModels = []struct {
	name  string
	build func() *nn.Model
	shape []int // per-sample input shape
}{
	{"mlp-bn-prelu-dropout", func() *nn.Model {
		const seed = 5
		return nn.NewModel(nn.NewSequential("mlp",
			nn.NewLinear("mlp/fc1", seed, 12, 16),
			nn.NewBatchNorm("mlp/bn1", seed, 16),
			nn.NewPReLU("mlp/prelu1", seed),
			nn.NewDropout("mlp/drop", seed, 0.3),
			nn.NewReLU("mlp/relu"),
			nn.NewLinearNoBias("mlp/fc2", seed, 16, 5),
		), seed)
	}, []int{12}},
	{"vggs-reduced", func() *nn.Model { return models.NewVGGS(models.VGGSReduced(12, 8, 5, nil)) }, []int{3, 12, 12}},
	{"wrn-reduced", func() *nn.Model { return models.NewWRN(models.WRNReduced(10, 2, 5, nil)) }, []int{3, 12, 12}},
	{"densenet-reduced", func() *nn.Model { return models.NewDenseNet(models.DenseNetReduced(13, 6, 5, nil)) }, []int{3, 12, 12}},
}

// trainedLike moves every weight off its initialization and every batch
// norm statistic off its default, and with csr set moves the Linear and
// Conv2D weights onto CSR storage with no gradient buffer (as a compiled
// serving plan holds them), tracking every fifth element.
func trainedLike(m *nn.Model, csr bool) {
	for g := 0; g < m.Set.Total(); g += 5 {
		m.Set.Set(g, m.Set.Get(g)+0.125)
	}
	nn.Walk(m.Net, func(l nn.Layer) {
		var w *nn.Param
		rows := 0
		switch t := l.(type) {
		case *nn.BatchNorm:
			for c := range t.RunningMean {
				t.RunningMean[c], t.RunningVar[c] = 0.1*float32(c%3), 1+0.2*float32(c%4)
			}
		case *nn.Linear:
			w, rows = t.W, t.Out
		case *nn.Conv2D:
			w, rows = t.W, t.OutC
		}
		if w == nil || !csr {
			return
		}
		var idx []int32
		var val []float32
		for i := 0; i < w.Len(); i += 5 {
			idx, val = append(idx, int32(i)), append(val, w.Value.Data[i])
		}
		w.CSR = nn.NewCSR(w.Init, rows, w.Len()/rows, idx, val)
		w.Value, w.Grad = nil, nil
	})
}

// sameBits fails unless got and want hold the same float bits.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestReplicaSharesWeightsAndComputesTheSame checks Model.Replica on dense
// and CSR storage: the replica's parameter set has the source's layout, its
// parameters share Value and CSR by pointer, its gradient buffers and slab
// binding are its own, its training and inference forward passes are
// byte-equal to the source's, and two replicas serve concurrently (the
// package runs under -race in CI).
func TestReplicaSharesWeightsAndComputesTheSame(t *testing.T) {
	for _, tc := range replicaModels {
		for _, storage := range []string{"dense", "csr"} {
			t.Run(tc.name+"/"+storage, func(t *testing.T) {
				src := tc.build()
				trainedLike(src, storage == "csr")
				n := 3
				x := randInput(17, append([]int{n}, tc.shape...)...)
				// A training pass first, so dropout layers have a sample
				// count the replicas must start from.
				src.Net.Forward(x, true)
				r1, err := src.Replica()
				if err != nil {
					t.Fatal(err)
				}
				r2, err := src.Replica()
				if err != nil {
					t.Fatal(err)
				}

				if r1.Seed != src.Seed || r1.Set.Total() != src.Set.Total() || len(r1.Set.Params()) != len(src.Set.Params()) {
					t.Fatalf("replica layout (seed %d, %d scalars, %d params) differs from the source's (%d, %d, %d)",
						r1.Seed, r1.Set.Total(), len(r1.Set.Params()), src.Seed, src.Set.Total(), len(src.Set.Params()))
				}
				for i, p := range src.Set.Params() {
					q := r1.Set.Params()[i]
					switch {
					case q == p || q.Name != p.Name || q.ID != p.ID || r1.Set.Offset(i) != src.Set.Offset(i):
						t.Fatalf("replica parameter %d is %q at %d, source has %q at %d", i, q.Name, r1.Set.Offset(i), p.Name, src.Set.Offset(i))
					case q.Value != p.Value || q.CSR != p.CSR:
						t.Fatalf("%s: replica does not share the source's weight storage", p.Name)
					case (p.Grad == nil) != (q.Grad == nil):
						t.Fatalf("%s: source gradient present %v, replica's %v", p.Name, p.Grad != nil, q.Grad != nil)
					case p.Grad != nil && (q.Grad == p.Grad || &q.Grad.Data[0] == &p.Grad.Data[0] || q.Grad.Len() != p.Grad.Len()):
						t.Fatalf("%s: replica gradient is not a private buffer of the source's size", p.Name)
					}
				}

				slab := make([]float32, src.Set.Total())
				src.Set.BindSampleSlab(slab, 0)
				for _, q := range r1.Set.Params() {
					if q.SlabBound() {
						t.Fatalf("%s: binding the source's slab bound the replica's parameter", q.Name)
					}
				}
				src.Set.UnbindSampleSlab()

				want := src.Net.Forward(x, true).Clone()
				got := r1.Net.Forward(x, true)
				sameBits(t, "training forward", got.Data, want.Data)
				if storage == "dense" {
					// Backward on the replica accumulates into its own
					// gradients only.
					src.Set.ZeroGrads()
					dy := tensor.New(got.Shape...)
					dy.Fill(1)
					r1.Net.Backward(dy)
					for _, p := range src.Set.Params() {
						for _, v := range p.Grad.Data {
							if v != 0 {
								t.Fatalf("%s: replica backward wrote the source's gradient", p.Name)
							}
						}
					}
				}

				want = src.Net.Forward(x, false).Clone()
				var wg sync.WaitGroup
				outs := make([][]float32, 2)
				for i, r := range []*nn.Model{r1, r2} {
					wg.Add(1)
					go func(i int, r *nn.Model) {
						defer wg.Done()
						for k := 0; k < 3; k++ {
							outs[i] = r.Net.Forward(x, false).Data
						}
					}(i, r)
				}
				wg.Wait()
				sameBits(t, "replica 1 inference", outs[0], want.Data)
				sameBits(t, "replica 2 inference", outs[1], want.Data)
			})
		}
	}
}

// TestReplicaRejectsVariationalDropout: a variational-dropout layer is not
// an nn layer, and Replica reports it instead of building a wrong copy.
func TestReplicaRejectsVariationalDropout(t *testing.T) {
	m := models.NewVGGS(models.VGGSReduced(12, 8, 5, prune.Variational{}))
	if _, err := m.Replica(); err == nil {
		t.Fatal("Replica accepted a variational-dropout model")
	}
}

package tensor

import "fmt"

func assertSameLen(op string, a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Add returns a + b elementwise (same total size required).
func Add(a, b *Tensor) *Tensor {
	assertSameLen("Add", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace sets a += b elementwise.
func AddInPlace(a, b *Tensor) {
	assertSameLen("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	assertSameLen("Sub", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Mul returns the elementwise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	assertSameLen("Mul", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// MulInPlace sets a *= b elementwise.
func MulInPlace(a, b *Tensor) {
	assertSameLen("MulInPlace", a, b)
	for i := range a.Data {
		a.Data[i] *= b.Data[i]
	}
}

// Scale returns a * s.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// ScaleInPlace sets a *= s.
func ScaleInPlace(a *Tensor, s float32) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// AXPY sets y += alpha*x — the SGD update kernel.
func AXPY(alpha float32, x, y *Tensor) {
	assertSameLen("AXPY", x, y)
	for i := range x.Data {
		y.Data[i] += alpha * x.Data[i]
	}
}

// Apply returns f applied elementwise to a.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i])
	}
	return out
}

// ApplyInPlace applies f elementwise to a in place.
func ApplyInPlace(a *Tensor, f func(float32) float32) {
	for i := range a.Data {
		a.Data[i] = f(a.Data[i])
	}
}

// Dot returns the inner product of the flattened tensors, accumulated in
// float64 for stability.
func Dot(a, b *Tensor) float64 {
	assertSameLen("Dot", a, b)
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// AddRowVector adds a length-C vector to every row of an (N, C) matrix,
// writing in place — the bias-add kernel.
func AddRowVector(m *Tensor, v *Tensor) {
	if len(m.Shape) != 2 {
		panic("tensor: AddRowVector requires a 2-D tensor")
	}
	n, c := m.Shape[0], m.Shape[1]
	if len(v.Data) != c {
		panic(fmt.Sprintf("tensor: AddRowVector vector length %d != columns %d", len(v.Data), c))
	}
	for i := 0; i < n; i++ {
		row := m.Data[i*c : (i+1)*c]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
}

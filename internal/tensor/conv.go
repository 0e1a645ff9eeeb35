package tensor

import "fmt"

// ConvOutSize returns the output spatial size for a convolution or pooling
// window: floor((in + 2*pad - kernel)/stride) + 1.
func ConvOutSize(in, kernel, stride, pad int) int {
	if stride <= 0 {
		panic("tensor: stride must be positive")
	}
	out := (in+2*pad-kernel)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: convolution output size %d non-positive (in=%d kernel=%d stride=%d pad=%d)", out, in, kernel, stride, pad))
	}
	return out
}

// Im2ColSlice lowers one (C, H, W) image stored in img into the column
// matrix dst of shape (C*KH*KW, OH*OW), so that convolution becomes a single
// matrix multiply with the (F, C*KH*KW) filter matrix. dst is fully
// overwritten — padding positions are written as explicit zeros — so it can
// come from a reused workspace buffer with stale contents.
func Im2ColSlice(dst, img []float32, c, h, w, kh, kw, stride, pad int) {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(img) != c*h*w || len(dst) != c*kh*kw*oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColSlice buffer sizes %d/%d incompatible with (%d,%d,%d) k=%dx%d s=%d p=%d", len(dst), len(img), c, h, w, kh, kw, stride, pad))
	}
	colStride := oh * ow
	for ci := 0; ci < c; ci++ {
		imgBase := ci * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				rowBase := ((ci*kh+ki)*kw + kj) * colStride
				for oi := 0; oi < oh; oi++ {
					ii := oi*stride + ki - pad
					dstRow := dst[rowBase+oi*ow : rowBase+(oi+1)*ow]
					if ii < 0 || ii >= h {
						clear(dstRow) // whole row samples vertical padding
						continue
					}
					srcRow := img[imgBase+ii*w : imgBase+(ii+1)*w]
					for oj := range dstRow {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							dstRow[oj] = 0
						} else {
							dstRow[oj] = srcRow[jj]
						}
					}
				}
			}
		}
	}
}

// Im2Col lowers one image x of shape (C, H, W) into a freshly allocated
// column matrix of shape (C*KH*KW, OH*OW). See Im2ColSlice for the kernel.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if len(x.Shape) != 3 {
		panic("tensor: Im2Col requires a (C,H,W) tensor")
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	cols := New(c*kh*kw, oh*ow)
	Im2ColSlice(cols.Data, x.Data, c, h, w, kh, kw, stride, pad)
	return cols
}

// Col2ImSlice is the adjoint of Im2ColSlice: it scatters a (C*KH*KW, OH*OW)
// column matrix back into the (C, H, W) image img, accumulating where
// windows overlap. img is fully overwritten (it is zeroed first), so it can
// come from a reused workspace buffer with stale contents.
func Col2ImSlice(img, cols []float32, c, h, w, kh, kw, stride, pad int) {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(img) != c*h*w || len(cols) != c*kh*kw*oh*ow {
		panic(fmt.Sprintf("tensor: Col2ImSlice buffer sizes %d/%d incompatible with (%d,%d,%d) k=%dx%d s=%d p=%d", len(img), len(cols), c, h, w, kh, kw, stride, pad))
	}
	clear(img)
	colStride := oh * ow
	for ci := 0; ci < c; ci++ {
		imgBase := ci * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				rowBase := ((ci*kh+ki)*kw + kj) * colStride
				for oi := 0; oi < oh; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						continue
					}
					srcBase := rowBase + oi*ow
					dstBase := imgBase + ii*w
					for oj := 0; oj < ow; oj++ {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							continue
						}
						img[dstBase+jj] += cols[srcBase+oj]
					}
				}
			}
		}
	}
}

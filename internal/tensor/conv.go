package tensor

// Im2Col unfolds an input tensor x of shape (C, H, W) into a matrix of shape
// (C*kh*kw, outH*outW) such that convolution reduces to a matrix product
// with the (outC, C*kh*kw) weight matrix. Zero padding of pad pixels is
// applied on all four sides and the kernel advances by stride. The matrix
// is written over dst when its capacity suffices (every element, padding
// zeros included, so dst may hold anything) and into a new slice otherwise.
func Im2Col(dst []float32, x *Tensor, kh, kw, stride, pad int) *Tensor {
	if x.NDim() != 3 {
		panic("tensor: Im2Col requires a (C,H,W) input")
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	plane := outH * outW
	dst = reuse(dst, c*kh*kw*plane)
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := ((ch*kh)+ki)*kw + kj
				// Output columns [lo, hi) read input columns inside the image.
				lo, hi := 0, outW
				for lo < outW && lo*stride-pad+kj < 0 {
					lo++
				}
				for hi > lo && (hi-1)*stride-pad+kj >= w {
					hi--
				}
				for oy := 0; oy < outH; oy++ {
					d := dst[row*plane+oy*outW : row*plane+(oy+1)*outW]
					iy := oy*stride - pad + ki
					if iy < 0 || iy >= h {
						clear(d)
						continue
					}
					clear(d[:lo])
					clear(d[hi:])
					src := x.Data[chBase+iy*w : chBase+(iy+1)*w]
					if stride == 1 && lo < hi {
						copy(d[lo:hi], src[lo-pad+kj:])
						continue
					}
					for ox := lo; ox < hi; ox++ {
						d[ox] = src[ox*stride-pad+kj]
					}
				}
			}
		}
	}
	return FromSlice(dst, c*kh*kw, plane)
}

// Col2Im folds a (C*kh*kw, outH*outW) column matrix back into dst, a
// (C, H, W) image of c*h*w elements, adding every contribution to what dst
// holds, overlapping ones in turn. It is the adjoint of Im2Col and is used
// to propagate gradients to the convolution input.
func Col2Im(dst []float32, cols *Tensor, c, h, w, kh, kw, stride, pad int) {
	if len(dst) != c*h*w {
		panic("tensor: Col2Im destination size mismatch")
	}
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := ((ch*kh)+ki)*kw + kj
				src := cols.Data[row*outH*outW:]
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ki
					if iy < 0 || iy >= h {
						continue
					}
					dstRow := chBase + iy*w
					srcRow := oy * outW
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kj
						if ix < 0 || ix >= w {
							continue
						}
						dst[dstRow+ix] += src[srcRow+ox]
					}
				}
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution with the
// given input size, kernel, stride and padding.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

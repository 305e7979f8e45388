package imaging

import (
	"fmt"
	"math"

	"p3/internal/jpegx"
)

// GaussianBlur convolves each plane with a σ-parameterized Gaussian.
// Convolution is linear. PSP resize pipelines commonly blur slightly before
// decimation; the pipeline search sweeps σ.
type GaussianBlur struct {
	Sigma float64
}

// Linear implements Op.
func (GaussianBlur) Linear() bool { return true }

func (g GaussianBlur) String() string { return fmt.Sprintf("gaussian(σ=%.2f)", g.Sigma) }

// Kernel1D returns the normalized 1-D Gaussian kernel for σ, radius
// ceil(3σ).
func (g GaussianBlur) Kernel1D() []float64 {
	if g.Sigma <= 0 {
		return []float64{1}
	}
	r := int(math.Ceil(3 * g.Sigma))
	k := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * g.Sigma * g.Sigma))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// Apply implements Op.
func (g GaussianBlur) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage {
	if g.Sigma <= 0 {
		return src.Clone()
	}
	k := g.Kernel1D()
	dst := jpegx.NewPlanarImage(src.Width, src.Height, len(src.Planes))
	tmp := make([]float64, src.Width*src.Height)
	for pi := range src.Planes {
		convolveH(src.Planes[pi], tmp, src.Width, src.Height, k)
		convolveV(tmp, dst.Planes[pi], src.Width, src.Height, k)
	}
	return dst
}

// convolveH applies a horizontal 1-D kernel with edge replication.
func convolveH(src, dst []float64, w, h int, k []float64) {
	r := len(k) / 2
	for y := 0; y < h; y++ {
		row := src[y*w : y*w+w]
		orow := dst[y*w : y*w+w]
		for x := 0; x < w; x++ {
			var acc float64
			for i, kv := range k {
				sx := clampIdx(x+i-r, 0, w-1)
				acc += kv * row[sx]
			}
			orow[x] = acc
		}
	}
}

// convolveV applies a vertical 1-D kernel with edge replication.
func convolveV(src, dst []float64, w, h int, k []float64) {
	r := len(k) / 2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc float64
			for i, kv := range k {
				sy := clampIdx(y+i-r, 0, h-1)
				acc += kv * src[sy*w+x]
			}
			dst[y*w+x] = acc
		}
	}
}

// Sharpen is an unsharp mask: out = src + Amount·(src − blur_σ(src)).
// Despite the name this is a linear operator (a difference of convolutions),
// so P3 reconstruction survives PSP-side sharpening.
type Sharpen struct {
	Sigma  float64
	Amount float64
}

// Linear implements Op.
func (Sharpen) Linear() bool { return true }

func (s Sharpen) String() string { return fmt.Sprintf("sharpen(σ=%.2f,a=%.2f)", s.Sigma, s.Amount) }

// Apply implements Op.
func (s Sharpen) Apply(src *jpegx.PlanarImage) *jpegx.PlanarImage {
	if s.Amount == 0 || s.Sigma <= 0 {
		return src.Clone()
	}
	// out = (src + a·src) + (−a)·blur over the blur buffer: the float
	// operations, in order, of accumulating into a copy of src.
	out := GaussianBlur{Sigma: s.Sigma}.Apply(src)
	for pi, o := range out.Planes {
		for i, v := range src.Planes[pi][:len(o)] {
			o[i] = (v + s.Amount*v) + (-s.Amount)*o[i]
		}
	}
	return out
}

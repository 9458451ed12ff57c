// Package vision is a pure-Go computer-vision substrate for the MAR
// workloads the paper offloads: feature extraction, descriptor matching,
// and homography estimation ("matching the feature points of the
// environment against the ones with a perfectly aligned image of the
// objects detected in the camera view, namely homography", Section III-B),
// plus Glimpse-style local template tracking.
//
// The paper's real systems use OpenCV; Go bindings for it require cgo, so
// this package reimplements the minimal pipeline from scratch on synthetic
// frames: a FAST-style corner detector, BRIEF-style binary descriptors,
// Hamming matching, and RANSAC homography fitting with a DLT solver. The
// point is not state-of-the-art vision but a workload whose compute cost
// and data volumes (frames vs feature lists vs pose results) are realistic
// for the offloading experiments.
package vision

import (
	"fmt"
	"math"
	"math/rand"
)

// Frame is an 8-bit grayscale image.
type Frame struct {
	W, H int
	Pix  []uint8 // row-major, len = W*H
}

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Pix: make([]uint8, w*h)}
}

// Clone returns a deep copy.
func (f *Frame) Clone() *Frame {
	out := NewFrame(f.W, f.H)
	copy(out.Pix, f.Pix)
	return out
}

// Bytes reports the raw size of the frame in bytes (the "ship the frame"
// offloading cost).
func (f *Frame) Bytes() int { return len(f.Pix) }

// SceneConfig controls the synthetic scene generator.
type SceneConfig struct {
	W, H     int
	Rects    int     // number of random filled rectangles
	NoiseStd float64 // Gaussian pixel noise standard deviation
}

// Scene synthesizes a textured scene: a mid-gray background with random
// bright/dark rectangles (which produce strong corners) plus Gaussian
// noise. The same seed always produces the same scene.
func Scene(cfg SceneConfig, seed int64) *Frame {
	rng := rand.New(rand.NewSource(seed))
	f := NewFrame(cfg.W, cfg.H)
	for i := range f.Pix {
		f.Pix[i] = 128
	}
	for r := 0; r < cfg.Rects; r++ {
		w := 8 + rng.Intn(cfg.W/4)
		h := 8 + rng.Intn(cfg.H/4)
		x0 := rng.Intn(cfg.W - 1)
		y0 := rng.Intn(cfg.H - 1)
		v := uint8(rng.Intn(256))
		for y := y0; y < y0+h && y < cfg.H; y++ {
			for x := x0; x < x0+w && x < cfg.W; x++ {
				f.Pix[y*cfg.W+x] = v
			}
		}
	}
	if cfg.NoiseStd > 0 {
		for i := range f.Pix {
			v := float64(f.Pix[i]) + rng.NormFloat64()*cfg.NoiseStd
			f.Pix[i] = clampU8(v)
		}
	}
	return f
}

func clampU8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// BoxBlur returns the frame smoothed with a (2r+1)² box filter, computed
// with an integral image so the cost is independent of r. BRIEF sampling
// uses it to resist noise.
func (f *Frame) BoxBlur(r int) *Frame {
	if r <= 0 {
		return f.Clone()
	}
	w, h := f.W, f.H
	// Integral image with one pad row/col.
	integ := make([]uint64, (w+1)*(h+1))
	for y := 0; y < h; y++ {
		var rowSum uint64
		for x := 0; x < w; x++ {
			rowSum += uint64(f.Pix[y*w+x])
			integ[(y+1)*(w+1)+x+1] = integ[y*(w+1)+x+1] + rowSum
		}
	}
	out := NewFrame(w, h)
	for y := 0; y < h; y++ {
		y0, y1 := max(0, y-r), min(h-1, y+r)
		for x := 0; x < w; x++ {
			x0, x1 := max(0, x-r), min(w-1, x+r)
			sum := integ[(y1+1)*(w+1)+x1+1] - integ[y0*(w+1)+x1+1] -
				integ[(y1+1)*(w+1)+x0] + integ[y0*(w+1)+x0]
			area := uint64((y1 - y0 + 1) * (x1 - x0 + 1))
			out.Pix[y*w+x] = uint8(sum / area)
		}
	}
	return out
}

// Warp applies homography H (mapping destination coords to source coords,
// i.e. inverse warping) producing a new frame with bilinear sampling.
func Warp(src *Frame, hInv Homography) *Frame {
	out := NewFrame(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			sx, sy, ok := hInv.Apply(float64(x), float64(y))
			if !ok {
				continue
			}
			out.Pix[y*src.W+x] = bilinear(src, sx, sy)
		}
	}
	return out
}

func bilinear(f *Frame, x, y float64) uint8 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	if x0 < 0 || y0 < 0 || x0 >= f.W-1 || y0 >= f.H-1 {
		return 0
	}
	fx := x - float64(x0)
	fy := y - float64(y0)
	p00 := float64(f.Pix[y0*f.W+x0])
	p10 := float64(f.Pix[y0*f.W+x0+1])
	p01 := float64(f.Pix[(y0+1)*f.W+x0])
	p11 := float64(f.Pix[(y0+1)*f.W+x0+1])
	v := p00*(1-fx)*(1-fy) + p10*fx*(1-fy) + p01*(1-fx)*fy + p11*fx*fy
	return clampU8(v)
}

// Point is a 2-D point in pixel coordinates.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

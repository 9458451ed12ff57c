package vision

import (
	"errors"
	"math"
	"math/rand"
)

// Errors returned by the geometry code.
var (
	ErrDegenerate    = errors.New("vision: degenerate point configuration")
	ErrTooFewMatches = errors.New("vision: not enough matches for homography")
	ErrNoConsensus   = errors.New("vision: RANSAC found no consensus")
)

// Homography is a 3x3 projective transform, row-major, h[8] normalized to 1
// where possible.
type Homography [9]float64

// Translation returns a pure translation homography.
func Translation(dx, dy float64) Homography {
	return Homography{1, 0, dx, 0, 1, dy, 0, 0, 1}
}

// Apply maps (x, y) through the homography. ok is false when the point
// maps to infinity.
func (h Homography) Apply(x, y float64) (hx, hy float64, ok bool) {
	wd := h[6]*x + h[7]*y + h[8]
	if math.Abs(wd) < 1e-12 {
		return 0, 0, false
	}
	return (h[0]*x + h[1]*y + h[2]) / wd, (h[3]*x + h[4]*y + h[5]) / wd, true
}

// SolveHomography computes the homography mapping src[i] -> dst[i] from
// exactly 4 correspondences by direct linear transform: with h22 fixed to
// 1 this is an 8x8 linear system solved by Gaussian elimination with
// partial pivoting.
func SolveHomography(src, dst [4]Point) (Homography, error) {
	var a [8][9]float64 // augmented system
	for i := 0; i < 4; i++ {
		x, y := src[i].X, src[i].Y
		u, v := dst[i].X, dst[i].Y
		a[2*i] = [9]float64{x, y, 1, 0, 0, 0, -u * x, -u * y, u}
		a[2*i+1] = [9]float64{0, 0, 0, x, y, 1, -v * x, -v * y, v}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < 8; col++ {
		pivot := col
		for r := col + 1; r < 8; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-10 {
			return Homography{}, ErrDegenerate
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := col + 1; r < 8; r++ {
			factor := a[r][col] / a[col][col]
			for c := col; c < 9; c++ {
				a[r][c] -= factor * a[col][c]
			}
		}
	}
	var h Homography
	for col := 7; col >= 0; col-- {
		sum := a[col][8]
		for c := col + 1; c < 8; c++ {
			sum -= a[col][c] * h[c]
		}
		h[col] = sum / a[col][col]
	}
	h[8] = 1
	return h, nil
}

// RansacConfig tunes EstimateHomography.
type RansacConfig struct {
	Iterations int     // default 500
	InlierDist float64 // reprojection threshold in pixels, default 3
	MinInliers int     // default 8
}

// RansacResult carries the model and its support.
type RansacResult struct {
	H       Homography
	Inliers []int // indexes into the match list
}

// EstimateHomography robustly fits a homography to the matched features
// (query -> train) with RANSAC over 4-point DLT hypotheses.
func EstimateHomography(query, train []Feature, matches []Match, cfg RansacConfig, rng *rand.Rand) (RansacResult, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 500
	}
	if cfg.InlierDist <= 0 {
		cfg.InlierDist = 3
	}
	if cfg.MinInliers <= 0 {
		cfg.MinInliers = 8
	}
	if len(matches) < 4 {
		return RansacResult{}, ErrTooFewMatches
	}
	src := make([]Point, len(matches))
	dst := make([]Point, len(matches))
	for i, m := range matches {
		src[i] = Point{float64(query[m.I].Kp.X), float64(query[m.I].Kp.Y)}
		dst[i] = Point{float64(train[m.J].Kp.X), float64(train[m.J].Kp.Y)}
	}
	var best RansacResult
	thresh2 := cfg.InlierDist * cfg.InlierDist
	for range cfg.Iterations {
		idx := rng.Perm(len(matches))[:4]
		var s4, d4 [4]Point
		for k, i := range idx {
			s4[k], d4[k] = src[i], dst[i]
		}
		h, err := SolveHomography(s4, d4)
		if err != nil {
			continue
		}
		var inliers []int
		for i := range matches {
			hx, hy, ok := h.Apply(src[i].X, src[i].Y)
			if !ok {
				continue
			}
			dx, dy := hx-dst[i].X, hy-dst[i].Y
			if dx*dx+dy*dy <= thresh2 {
				inliers = append(inliers, i)
			}
		}
		if len(inliers) > len(best.Inliers) {
			best = RansacResult{H: h, Inliers: inliers}
			// Early exit on overwhelming consensus.
			if len(inliers) > len(matches)*9/10 {
				break
			}
		}
	}
	if len(best.Inliers) < cfg.MinInliers {
		return RansacResult{}, ErrNoConsensus
	}
	return best, nil
}

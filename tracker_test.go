package main_test

import (
	"math"

	"marnet/internal/vision"
)

// tracker follows a template patch across frames by normalized
// cross-correlation over a bounded search window: the cheap local
// operation a Glimpse-style pipeline runs on the device between offloaded
// recognitions (Section III-B). Only glimpseRun drives one.
type tracker struct {
	tmpl   *vision.Frame
	cx, cy int // current estimated center
	half   int
	search int
	minNCC float64
	lost   bool
}

// newTracker captures a (2*half+1)² template around (cx, cy) in the frame.
// search bounds the displacement examined per update; minNCC is the
// correlation floor below which the tracker declares itself lost.
func newTracker(f *vision.Frame, cx, cy, half, search int, minNCC float64) *tracker {
	return &tracker{tmpl: extractPatch(f, cx, cy, half), cx: cx, cy: cy, half: half, search: search, minNCC: minNCC}
}

// update searches the new frame around the last position and returns the
// new center and the best correlation score. When the score is below the
// floor the tracker keeps its previous position and reports lost.
func (t *tracker) update(f *vision.Frame) (x, y int, score float64) {
	bestScore := -2.0
	bestX, bestY := t.cx, t.cy
	for dy := -t.search; dy <= t.search; dy++ {
		for dx := -t.search; dx <= t.search; dx++ {
			nx, ny := t.cx+dx, t.cy+dy
			if nx-t.half < 0 || ny-t.half < 0 || nx+t.half >= f.W || ny+t.half >= f.H {
				continue
			}
			if s := ncc(t.tmpl, f, nx, ny, t.half); s > bestScore {
				bestScore, bestX, bestY = s, nx, ny
			}
		}
	}
	if bestScore < t.minNCC {
		t.lost = true
		return t.cx, t.cy, bestScore
	}
	t.lost = false
	t.cx, t.cy = bestX, bestY
	return bestX, bestY, bestScore
}

// reacquire re-centers the tracker from an offloaded recognition result
// and refreshes its template from the frame.
func (t *tracker) reacquire(f *vision.Frame, cx, cy int) {
	t.cx, t.cy = cx, cy
	t.tmpl = extractPatch(f, cx, cy, t.half)
	t.lost = false
}

func extractPatch(f *vision.Frame, cx, cy, half int) *vision.Frame {
	side := 2*half + 1
	p := vision.NewFrame(side, side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			// Pixels outside the frame read 0.
			if fx, fy := cx-half+x, cy-half+y; fx >= 0 && fy >= 0 && fx < f.W && fy < f.H {
				p.Pix[y*side+x] = f.Pix[fy*f.W+fx]
			}
		}
	}
	return p
}

// ncc computes normalized cross-correlation between the template and the
// patch centered at (cx, cy).
func ncc(tmpl, f *vision.Frame, cx, cy, half int) float64 {
	side := 2*half + 1
	n := float64(side * side)
	var sumT, sumF, sumTT, sumFF, sumTF float64
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			tv := float64(tmpl.Pix[y*side+x])
			fv := float64(f.Pix[(cy-half+y)*f.W+cx-half+x])
			sumT += tv
			sumF += fv
			sumTT += tv * tv
			sumFF += fv * fv
			sumTF += tv * fv
		}
	}
	num := sumTF - sumT*sumF/n
	den := math.Sqrt((sumTT - sumT*sumT/n) * (sumFF - sumF*sumF/n))
	if den < 1e-9 {
		return 0
	}
	return num / den
}

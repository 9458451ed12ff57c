package vision

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testScene(seed int64) *Frame {
	return Scene(SceneConfig{W: 320, H: 240, Rects: 25, NoiseStd: 2}, seed)
}

func TestFrameAccessors(t *testing.T) {
	f := NewFrame(4, 3)
	f.Set(1, 2, 77)
	if f.At(1, 2) != 77 {
		t.Error("Set/At round trip failed")
	}
	if f.At(-1, 0) != 0 || f.At(4, 0) != 0 || f.At(0, 3) != 0 {
		t.Error("out-of-bounds reads should return 0")
	}
	f.Set(-1, -1, 9) // must not panic
	if f.Bytes() != 12 {
		t.Errorf("Bytes = %d, want 12", f.Bytes())
	}
	c := f.Clone()
	c.Set(0, 0, 1)
	if f.At(0, 0) == 1 {
		t.Error("Clone shares storage")
	}
}

func TestSceneDeterminism(t *testing.T) {
	a := testScene(7)
	b := testScene(7)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different scenes")
		}
	}
	c := testScene(8)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical scenes")
	}
}

func TestBoxBlurPreservesConstant(t *testing.T) {
	f := NewFrame(32, 32)
	for i := range f.Pix {
		f.Pix[i] = 99
	}
	b := f.BoxBlur(3)
	for i := range b.Pix {
		if b.Pix[i] != 99 {
			t.Fatalf("blur of constant image changed pixel %d to %d", i, b.Pix[i])
		}
	}
	if got := f.BoxBlur(0); got.Pix[5] != f.Pix[5] {
		t.Error("r=0 blur should be a copy")
	}
}

func TestDetectFASTFindsRectangleCorners(t *testing.T) {
	f := NewFrame(64, 64)
	for i := range f.Pix {
		f.Pix[i] = 40
	}
	for y := 20; y < 44; y++ {
		for x := 20; x < 44; x++ {
			f.Set(x, y, 220)
		}
	}
	kps := DetectFAST(f, 20, 0)
	if len(kps) == 0 {
		t.Fatal("no corners detected on a high-contrast rectangle")
	}
	// Every detected corner should be near one of the 4 rectangle corners.
	corners := [][2]int{{20, 20}, {43, 20}, {20, 43}, {43, 43}}
	for _, kp := range kps {
		near := false
		for _, c := range corners {
			dx, dy := kp.X-c[0], kp.Y-c[1]
			if dx*dx+dy*dy <= 9 {
				near = true
				break
			}
		}
		if !near {
			t.Errorf("spurious corner at (%d,%d)", kp.X, kp.Y)
		}
	}
}

func TestDetectFASTBlankImage(t *testing.T) {
	f := NewFrame(64, 64)
	if kps := DetectFAST(f, 20, 0); len(kps) != 0 {
		t.Errorf("blank image produced %d corners", len(kps))
	}
}

func TestDetectFASTMaxFeaturesAndOrdering(t *testing.T) {
	f := testScene(3)
	all := DetectFAST(f, 20, 0)
	if len(all) < 20 {
		t.Fatalf("scene produced only %d corners", len(all))
	}
	top := DetectFAST(f, 20, 10)
	if len(top) != 10 {
		t.Fatalf("cap returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("keypoints not sorted by score")
		}
	}
}

func TestDescribeAndMatchIdentity(t *testing.T) {
	f := testScene(11)
	kps := DetectFAST(f, 20, 150)
	feats := Describe(f, kps)
	if len(feats) < 50 {
		t.Fatalf("only %d descriptors", len(feats))
	}
	matches := MatchFeatures(feats, feats, 64, 0) // ratio disabled via 0? keep strict distance
	// Self-matching must map every feature onto itself with distance 0.
	if len(matches) < len(feats)/2 {
		t.Fatalf("only %d/%d self matches", len(matches), len(feats))
	}
	for _, m := range matches {
		if d := Hamming(feats[m.I].Desc, feats[m.J].Desc); m.I != m.J || d != 0 {
			t.Fatalf("self match %d->%d dist %d", m.I, m.J, d)
		}
	}
}

func TestHammingBounds(t *testing.T) {
	var a, b Descriptor
	if Hamming(a, b) != 0 {
		t.Error("identical descriptors should have distance 0")
	}
	for i := range b {
		b[i] = 0xff
	}
	if got := Hamming(a, b); got != 256 {
		t.Errorf("opposite descriptors distance = %d, want 256", got)
	}
}

func TestSolveHomographyExact(t *testing.T) {
	src := [4]Point{{0, 0}, {100, 0}, {100, 100}, {0, 100}}
	dst := [4]Point{{10, 20}, {115, 18}, {112, 130}, {8, 125}}
	h, err := SolveHomography(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		hx, hy, ok := h.Apply(src[i].X, src[i].Y)
		if !ok {
			t.Fatal("point mapped to infinity")
		}
		if math.Abs(hx-dst[i].X) > 1e-6 || math.Abs(hy-dst[i].Y) > 1e-6 {
			t.Errorf("corner %d maps to (%.3f,%.3f), want %v", i, hx, hy, dst[i])
		}
	}
}

func TestSolveHomographyDegenerate(t *testing.T) {
	// Three collinear points.
	src := [4]Point{{0, 0}, {1, 1}, {2, 2}, {5, 0}}
	dst := [4]Point{{0, 0}, {1, 1}, {2, 2}, {5, 0}}
	if _, err := SolveHomography(src, dst); !errors.Is(err, ErrDegenerate) {
		t.Errorf("err = %v, want ErrDegenerate", err)
	}
}

func TestTranslationAndIdentity(t *testing.T) {
	h := Translation(5, -3)
	x, y, _ := h.Apply(10, 10)
	if x != 15 || y != 7 {
		t.Errorf("translation applied wrong: (%v,%v)", x, y)
	}
}

// End-to-end pipeline: detect + describe on a scene and its translated
// copy, match, RANSAC, and recover the translation.
func TestPipelineRecoversTranslation(t *testing.T) {
	scene := testScene(42)
	const dx, dy = 8, 5
	// Shift the scene by (dx,dy): warp with inverse mapping.
	hInv := Translation(-dx, -dy) // dst->src
	shifted := Warp(scene, hInv)

	f1 := Describe(scene, DetectFAST(scene, 20, 300))
	f2 := Describe(shifted, DetectFAST(shifted, 20, 300))
	matches := MatchFeatures(f1, f2, 60, 0.8)
	if len(matches) < 20 {
		t.Fatalf("only %d matches", len(matches))
	}
	res, err := EstimateHomography(f1, f2, matches, RansacConfig{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	hx, hy, _ := res.H.Apply(100, 100)
	if math.Abs(hx-108) > 1.5 || math.Abs(hy-105) > 1.5 {
		t.Errorf("recovered map sends (100,100) to (%.2f,%.2f), want ~(108,105)", hx, hy)
	}
	if len(res.Inliers) < len(matches)/2 {
		t.Errorf("inliers %d/%d too few", len(res.Inliers), len(matches))
	}
}

func TestEstimateHomographyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := EstimateHomography(nil, nil, nil, RansacConfig{}, rng); !errors.Is(err, ErrTooFewMatches) {
		t.Errorf("err = %v, want ErrTooFewMatches", err)
	}
	// Pure noise matches should fail to reach consensus.
	f := testScene(5)
	feats := Describe(f, DetectFAST(f, 20, 100))
	if len(feats) < 30 {
		t.Skip("not enough features")
	}
	var junk []Match
	for i := 0; i < 30; i++ {
		junk = append(junk, Match{I: i, J: rng.Intn(len(feats))})
	}
	_, err := EstimateHomography(feats, feats, junk, RansacConfig{MinInliers: 25, Iterations: 50}, rng)
	if err == nil {
		t.Error("noise matches should not produce a confident model")
	}
}

// Property: warping by T(dx,dy) then sampling shifted coordinates
// reproduces the original pixel (away from borders).
func TestWarpTranslationProperty(t *testing.T) {
	scene := testScene(13)
	f := func(dxRaw, dyRaw uint8, xRaw, yRaw uint16) bool {
		dx := int(dxRaw%20) - 10
		dy := int(dyRaw%20) - 10
		x := 30 + int(xRaw)%(scene.W-60)
		y := 30 + int(yRaw)%(scene.H-60)
		shifted := Warp(scene, Translation(float64(-dx), float64(-dy)))
		// Pixel at (x+dx, y+dy) in shifted equals pixel at (x, y) in scene.
		return shifted.At(x+dx, y+dy) == scene.At(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

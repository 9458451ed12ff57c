package vision

import (
	"math/rand"
	"testing"
)

// These benchmarks calibrate the normalized op costs in internal/offload
// on a 320x240 frame. Extraction (detect+describe) dominates a single
// frame-pair match by ~10x here; the cost model's MatchOps (3x ExtractOps)
// reflects matching against a *large reference database* — the paper's "a
// large database of real world images are collected and used for feature
// matching" — i.e. tens of pair-matches plus RANSAC per recognition.
// Tracking is ~2x cheaper than extraction per update and runs on a small
// window; the model's TrackOps assumes a tighter search radius than this
// benchmark's 25x25 window.

func benchScene(b *testing.B) *Frame {
	b.Helper()
	return Scene(SceneConfig{W: 320, H: 240, Rects: 30, NoiseStd: 2}, 7)
}

func BenchmarkDetectFAST(b *testing.B) {
	f := benchScene(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kps := DetectFAST(f, 20, 300); len(kps) == 0 {
			b.Fatal("no corners")
		}
	}
}

func BenchmarkDescribe(b *testing.B) {
	f := benchScene(b)
	kps := DetectFAST(f, 20, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if feats := Describe(f, kps); len(feats) == 0 {
			b.Fatal("no features")
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	f := benchScene(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Describe(f, DetectFAST(f, 20, 300))
	}
}

func BenchmarkMatchAndRansac(b *testing.B) {
	f := benchScene(b)
	shifted := Warp(f, Translation(-6, -4))
	q := Describe(f, DetectFAST(f, 20, 300))
	tr := Describe(shifted, DetectFAST(shifted, 20, 300))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches := MatchFeatures(q, tr, 60, 0.8)
		if _, err := EstimateHomography(q, tr, matches, RansacConfig{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoxBlur(b *testing.B) {
	f := benchScene(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.BoxBlur(2)
	}
}

func BenchmarkHamming(b *testing.B) {
	var x, y Descriptor
	for i := range x {
		x[i] = byte(i)
		y[i] = byte(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hamming(x, y)
	}
}

func BenchmarkRedact(b *testing.B) {
	f := benchScene(b)
	regions := []Rect{{MinX: 40, MinY: 40, MaxX: 200, MaxY: 160}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Redact(f, regions, RedactPixelate, 16)
	}
}

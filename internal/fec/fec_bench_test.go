package fec

import (
	"math/rand"
	"testing"
)

func benchShards(b *testing.B, k, size int) [][]byte {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return mkShards(rng, k, size)
}

func BenchmarkRSEncode8x2_1200B(b *testing.B) {
	rs, err := NewRS(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	data := benchShards(b, 8, 1200)
	b.SetBytes(8 * 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSReconstruct8x2_2Erasures(b *testing.B) {
	rs, _ := NewRS(8, 2)
	data := benchShards(b, 8, 1200)
	repair, _ := rs.Encode(data)
	b.SetBytes(8 * 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, 10)
		copy(shards, data)
		shards[8], shards[9] = repair[0], repair[1]
		shards[1], shards[5] = nil, nil
		if _, err := rs.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResidualLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResidualLoss(8, 2, 0.05)
	}
}

package main

import (
	"fmt"
	"math/rand"
	"testing"

	"malt/internal/compress"
)

// BenchmarkSelectTopK times the top-k selection the topk codec runs once
// per destination per scatter, on dense updates of the RCV1 and webspam
// dimensions at the default ratio. README.md compares it with the traced
// scatter self time.
func BenchmarkSelectTopK(b *testing.B) {
	for _, dim := range []int{47152, 200000} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			data := make([]float64, dim)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			k := int(compress.DefaultRatio * float64(dim))
			dst := make([]int32, 0, dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = compress.SelectTopK(data, k, dst)
			}
		})
	}
}

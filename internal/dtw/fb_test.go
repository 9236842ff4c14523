package dtw

import (
	"math/rand"
	"testing"
)

func BenchmarkFastDistance200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomSeries(200, rng)
	y := randomSeries(200, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FastDistance(x, y, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactDistance200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomSeries(200, rng)
	y := randomSeries(200, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distance(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// Fixture for the nondeterminism analyzer checked as a strict
// detection-math package (see nondeterminism_test.go for the package
// path it poses as).
package fixture

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"voiceprint/internal/core"
)

func wallClock() time.Duration {
	start := time.Now()      // want "time.Now on the detection path"
	return time.Since(start) // want "time.Since on the detection path"
}

func guardedTiming(obs core.Observer) {
	if obs != nil {
		start := time.Now() // instrumentation guard: sanctioned
		obs.ObserveStage(core.StageCollect, time.Since(start))
	}
}

func suppressedClock() time.Duration {
	//voiceprintvet:ignore nondeterminism fixture exercises the suppression path
	return time.Since(time.Time{})
}

func globalRand() float64 {
	return rand.Float64() // want "math/rand.Float64 draws from the global generator"
}

func seededRand() float64 {
	r := rand.New(rand.NewSource(1))
	return r.Float64() // methods on a seeded *rand.Rand: sanctioned
}

func debugPrint(x float64) {
	fmt.Println(x) // want "fmt.Println writes directly to stdout"
}

func formatOK(x float64) string {
	return fmt.Sprintf("%v", x)
}

func mapOrderLeak(m map[int]float64) []int {
	var ids []int
	for id := range m { // want "map iteration order feeds ids"
		ids = append(ids, id)
	}
	return ids
}

func mapOrderSorted(m map[int]float64) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func sliceRangeOK(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

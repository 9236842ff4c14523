package main

import (
	"testing"
	"time"

	"voiceprint/internal/core"
)

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1, Layer: layerRound},     // 0: round
		{Start: 10, End: 30, Parent: 0, Layer: layerCollect},    // 1
		{Start: 25, End: 60, Parent: 0, Layer: layerCompare},    // 2: overlaps 1 by 5
		{Start: 40, End: 50, Parent: 2, Layer: layerAnalyze},    // 3: inside 2
		{Start: 90, End: 120, Parent: 0, Layer: layerConfirm},   // 4: runs past its parent
		{Start: 200, End: 250, Parent: -1, Layer: layerDecode},  // 5: leaf
		{Start: 250, End: 300, Parent: -1, Layer: layerObserve}, // 6: leaf
	}
	tot := selfTimes(spans)
	// The round's children cover [10,60) and [90,100) of it: 60 ns.
	want := map[layer]int64{
		layerRound:   100 - 60,
		layerCollect: 20,
		layerCompare: 35 - 10,
		layerAnalyze: 10,
		layerConfirm: 30,
		layerDecode:  50,
		layerObserve: 50,
	}
	for l, w := range want {
		if tot.Self[l] != w {
			t.Errorf("%s self = %d, want %d", layerNames[l], tot.Self[l], w)
		}
		if tot.Calls[l] != 1 {
			t.Errorf("%s calls = %d, want 1", layerNames[l], tot.Calls[l])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	r := tr.begin(layerRound, 3)
	tr.ObserveStage(core.StageCompare, time.Microsecond)
	a := tr.begin(layerAnalyze, -1)
	tr.end(a)
	tr.end(r)
	d := tr.begin(layerDecode, 7)
	tr.end(d)
	if len(tr.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(tr.spans))
	}
	for i, want := range []int32{-1, 0, 0, -1} {
		if got := tr.spans[i].Parent; got != want {
			t.Errorf("span %d (%s) parent = %d, want %d", i, layerNames[tr.spans[i].Layer], got, want)
		}
	}
	if tr.spans[1].Layer != layerCompare || tr.spans[1].End-tr.spans[1].Start != int64(time.Microsecond) {
		t.Errorf("stage span = %+v, want a 1µs compare span", tr.spans[1])
	}
	var none *tracer
	none.end(none.begin(layerDecode, 0)) // a nil tracer records nothing and must not panic
}

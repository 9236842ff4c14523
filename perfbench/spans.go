package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"voiceprint/internal/core"
)

// layer names one traced call site. Every span the traced replay
// records is a call into one public function of a repository layer,
// timed from the benchmark's side.
type layer uint8

const (
	layerBoot       layer = iota // service.NewServer on an empty state
	layerRecover                 // service.NewServer on a crashed WAL directory
	layerDecode                  // service.ParseObservation
	layerObserve                 // Registry.Observe (journals first when the WAL is on)
	layerRound                   // Scheduler.DetectOne
	layerWindow                  // core stage spans, reported by a core.Observer
	layerCollect                 //
	layerNormalize               //
	layerCompare                 //
	layerConfirm                 //
	layerAnalyze                 // core.Signal.Analyze of each fusion signal
	layerCoordinate              // service.RoundCoordinator.Coordinate
	layerEncode                  // service.EventFromOutcome(...).Encode()
	numLayers
)

var layerNames = [numLayers]string{
	"server.boot", "wal.recover", "protocol.decode", "registry.observe",
	"scheduler.round", "core.window", "core.collect", "core.normalize",
	"core.compare", "core.confirm", "fusion.analyze", "fusion.coordinate",
	"events.encode",
}

// stageLayers maps core's stages onto their span layers.
var stageLayers = [core.NumStages]layer{
	core.StageWindow:    layerWindow,
	core.StageCollect:   layerCollect,
	core.StageNormalize: layerNormalize,
	core.StageCompare:   layerCompare,
	core.StageConfirm:   layerConfirm,
}

// span is one timed call. Start and End are nanoseconds since the
// tracer's base; Parent indexes the enclosing span (-1 at top level);
// Ref is the beacon (line index) or round (boundary index) the call
// belongs to.
type span struct {
	Start, End int64
	Ref        int64
	Parent     int32
	Layer      layer
}

// tracer records spans in memory for one single-goroutine replay. A nil
// tracer records nothing, so the untraced replay runs the same code.
type tracer struct {
	base  time.Time
	spans []span
	open  int32
}

func newTracer() *tracer { return &tracer{base: time.Now(), open: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under the currently open one and returns its index.
func (t *tracer) begin(l layer, ref int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Start: t.now(), Ref: ref, Parent: t.open, Layer: l})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = t.now()
	t.open = t.spans[i].Parent
}

// ObserveStage makes the tracer a core.Observer: the monitor reports a
// stage's duration as it finishes, so the span ends now and started d
// ago, under whichever span is open (the round, or a recovery boot that
// replays journaled rounds). Only the single-goroutine replay installs
// it, so no locking is needed.
func (t *tracer) ObserveStage(s core.Stage, d time.Duration) {
	if int(s) >= len(stageLayers) {
		return
	}
	end := t.now()
	t.spans = append(t.spans, span{Start: end - int64(d), End: end, Ref: -1, Parent: t.open, Layer: stageLayers[s]})
}

// layerTotals is the per-layer self time and call count of a trace.
type layerTotals struct {
	Self  [numLayers]int64
	Calls [numLayers]int
}

// selfTimes computes each layer's self time: every span's duration
// minus the part of its interval that its child spans cover (the union
// of the children, clipped to the parent).
func selfTimes(spans []span) layerTotals {
	var tot layerTotals
	covered := make([]int64, len(spans))
	var kids []int
	for i, s := range spans {
		if s.Parent >= 0 {
			kids = append(kids, i)
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		ka, kb := spans[kids[a]], spans[kids[b]]
		if ka.Parent != kb.Parent {
			return ka.Parent < kb.Parent
		}
		return ka.Start < kb.Start
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].Parent
		lo, hi := spans[p].Start, spans[p].End
		var cov, curEnd int64 = 0, lo
		for ; i < len(kids) && spans[kids[i]].Parent == p; i++ {
			s, e := max(spans[kids[i]].Start, curEnd), min(spans[kids[i]].End, hi)
			if e > s {
				cov += e - s
				curEnd = e
			}
		}
		covered[p] = cov
	}
	for i, s := range spans {
		tot.Self[s.Layer] += s.End - s.Start - covered[i]
		tot.Calls[s.Layer]++
	}
	return tot
}

// writeSpans dumps the trace: one JSON header line naming the layers and
// the record layout, then fixed-size little-endian records.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hdr, err := json.Marshal(map[string]any{
		"layers": layerNames,
		"count":  len(spans),
		"record": "start_ns i64, end_ns i64, ref i64, parent i32, layer u8, pad u8[3]",
	})
	if err == nil {
		_, err = w.Write(append(hdr, '\n'))
	}
	var rec [32]byte
	for _, s := range spans {
		if err != nil {
			break
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.Start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.End))
		binary.LittleEndian.PutUint64(rec[16:], uint64(s.Ref))
		binary.LittleEndian.PutUint32(rec[24:], uint32(s.Parent))
		rec[28] = byte(s.Layer)
		_, err = w.Write(rec[:])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

package service

import (
	"io"
	"sync"

	"voiceprint/internal/obs"
)

// maxBatchLines caps the observations one batch carries. A full read of
// the 64 KiB line buffer holds a few hundred beacons, so normal reads
// stay whole; the cap bounds the applier's WAL record buffer and how
// long one batch holds the snapshot barrier.
const maxBatchLines = 1024

// obsBatch is a run of decoded observations in arrival order: what the
// reader decoded from one read of its connection, on its way to the
// applier. A canonical line's claimed position lives in pos at the
// line's index, so decoding it allocates nothing; the applier copies X
// and Y out before the batch is recycled.
type obsBatch struct {
	obs []Observation
	pos []Position
}

// batchPool recycles batch storage across connections, so a connection
// holds a batch only while it has lines in flight.
var batchPool = sync.Pool{New: func() any {
	return &obsBatch{obs: make([]Observation, 0, maxBatchLines), pos: make([]Position, maxBatchLines)}
}}

func getBatch() *obsBatch { return batchPool.Get().(*obsBatch) }

func putBatch(b *obsBatch) {
	clear(b.obs) // drop the *Position pointers of lines json.Unmarshal decoded
	b.obs = b.obs[:0]
	batchPool.Put(b)
}

// decode parses and validates one line (ParseObservation) and appends
// it to the batch, which must have room.
func (b *obsBatch) decode(line []byte) error {
	n := len(b.obs)
	b.obs = b.obs[:n+1]
	if err := parseObservation(line, &b.obs[n], &b.pos[n]); err != nil {
		b.obs[n] = Observation{} // may hold a *Position json.Unmarshal made
		b.obs = b.obs[:n]
		return err
	}
	return nil
}

// merge appends obs, which must fit, copying claimed positions into the
// batch's own storage: obs may point into a batch about to be recycled.
func (b *obsBatch) merge(obs []Observation) {
	for _, o := range obs {
		if o.Pos != nil {
			p := &b.pos[len(b.obs)]
			*p = *o.Pos
			o.Pos = p
		}
		b.obs = append(b.obs, o)
	}
}

// ingestQueue hands one connection's batches from its reader to its
// applier. It bounds the lines admitted but not yet applied at limit,
// and admission never blocks: the lines of a batch that do not fit are
// shed. Shedding under overload is by design: a beacon stream is a
// lossy medium already, and the detector tolerates gaps (that is why it
// compares with DTW), so it beats unbounded queueing. There is one
// reader per queue.
type ingestQueue struct {
	limit int
	shed  *obs.Counter  // every shed line, once
	ready chan struct{} // at most one pending wake-up for the applier

	mu      sync.Mutex
	batches []*obsBatch // voiceprintvet:guardedby mu
	lines   int         // voiceprintvet:guardedby mu — admitted, not yet applied
	closed  bool        // voiceprintvet:guardedby mu
}

func newIngestQueue(limit int, shed *obs.Counter) *ingestQueue {
	return &ingestQueue{limit: limit, shed: shed, ready: make(chan struct{}, 1)}
}

// admit queues the leading lines of b that fit under the bound and
// sheds the rest; the queue owns b afterwards. Lines that fit in the
// last batch still waiting for the applier are merged into it, so a
// stalled applier holds at most two batches of storage per
// maxBatchLines lines queued.
func (q *ingestQueue) admit(b *obsBatch) {
	q.mu.Lock()
	n := min(len(b.obs), max(q.limit-q.lines, 0))
	if shed := len(b.obs) - n; shed > 0 {
		q.shed.Add(uint64(shed))
	}
	b.obs = b.obs[:n]
	q.lines += n
	queued := false
	switch k := len(q.batches); {
	case n == 0:
	case k > 0 && len(q.batches[k-1].obs)+n <= maxBatchLines:
		// The applier has not taken the last batch yet, so the wake-up
		// that queued it covers these lines too.
		q.batches[k-1].merge(b.obs)
	default:
		q.batches = append(q.batches, b)
		queued = true
	}
	q.mu.Unlock()
	if !queued {
		putBatch(b)
		return
	}
	q.wake()
}

// take waits for queued batches and swaps them out in place of spare,
// which the caller hands back empty. It reports false once the queue is
// closed and drained.
func (q *ingestQueue) take(spare []*obsBatch) ([]*obsBatch, bool) {
	for {
		q.mu.Lock()
		if len(q.batches) > 0 {
			out := q.batches
			q.batches = spare[:0]
			q.mu.Unlock()
			return out, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return spare, false
		}
		<-q.ready
	}
}

// applied releases n applied lines from the bound.
func (q *ingestQueue) applied(n int) {
	q.mu.Lock()
	q.lines -= n
	q.mu.Unlock()
}

// drain hands every admitted batch to apply in arrival order and
// releases its lines from the bound once apply returns. It returns when
// the queue is closed and empty. One goroutine drains a queue.
func (q *ingestQueue) drain(apply func([]Observation)) {
	var taken []*obsBatch
	for {
		var ok bool
		if taken, ok = q.take(taken); !ok {
			return
		}
		for i, b := range taken {
			apply(b.obs)
			q.applied(len(b.obs))
			putBatch(b)
			taken[i] = nil
		}
	}
}

// close tells the applier that no more batches will come.
func (q *ingestQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}

// wake leaves the applier a wake-up unless one is already pending, which
// then covers this change too.
func (q *ingestQueue) wake() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// readHook runs before every read of the wrapped reader. The connection
// reader uses it to hand off the lines it has decoded before it can
// block waiting for more bytes.
type readHook struct {
	r      io.Reader
	before func()
}

func (h readHook) Read(p []byte) (int, error) {
	h.before()
	return h.r.Read(p)
}

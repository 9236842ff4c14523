// Package testkit is a deterministic fault-injection layer for
// exercising the streaming detection service under network chaos. The
// paper's detector is explicitly designed for a hostile transport —
// density-driven packet loss, bursty reordering, lossy DSRC links — and
// a daemon that only ever saw clean in-process pipes has not earned its
// robustness claims. The kit provides:
//
//   - a chaos net.Conn wrapper (this file) injecting
//     configurable latency, partial writes, mid-frame connection
//     resets, byte corruption, and line splitting/coalescing, and
//   - a scenario driver (scenario.go) that replays recorded traces
//     through a real service.Server over the chaotic transport and
//     reports the resulting confirmation sets and accounting.
//
// Every fault decision is drawn from a seeded PRNG — never from the
// wall clock — so a scenario replays identically for a given seed. The
// only wall-clock effect is the injected latency itself (a sleep of a
// PRNG-chosen duration); whether and where a fault fires is
// deterministic.
package testkit

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Config sets the chaos knobs. The zero value injects nothing: a
// zero-config Conn is a transparent pass-through.
type Config struct {
	// Seed roots the fault PRNG. Every wrapped connection derives its
	// own stream from (Seed, connection index), so multi-connection
	// scenarios stay deterministic regardless of accept order.
	Seed int64
	// Latency (plus up to Jitter more, PRNG-chosen) is slept before
	// each transport write, modelling link delay.
	Latency, Jitter time.Duration
	// SplitProb is the per-write probability the payload is delivered
	// in two fragments with a latency gap between them — a frame split
	// mid-line across TCP segments.
	SplitProb float64
	// CoalesceProb is the per-write probability the payload is held
	// back and merged into the next write, so several protocol lines
	// arrive as one segment.
	CoalesceProb float64
	// CorruptProb is the per-write probability one payload byte is
	// flipped to a different printable byte. Line terminators are never
	// touched, so corruption damages frame contents, not framing —
	// corrupted lines stay countable one-for-one.
	CorruptProb float64
	// ResetProb is the per-write probability the connection is torn
	// down mid-frame: a PRNG-chosen prefix of the payload is written,
	// then the underlying connection is closed.
	ResetProb float64
}

// mix derives a per-stream seed from the base seed (splitmix64 finisher,
// so nearby seeds and stream indices decorrelate).
func mix(seed, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Conn wraps a net.Conn with write-path fault injection. Reads pass
// through untouched (the peer's chaos wrapper owns that direction).
// Conn is safe for one concurrent reader plus one concurrent writer,
// like net.Conn itself.
type Conn struct {
	net.Conn
	cfg Config
	rng *rand.Rand

	mu     sync.Mutex
	pend   []byte // voiceprintvet:guardedby mu
	broken bool   // voiceprintvet:guardedby mu
}

// ErrInjectedReset is returned (wrapped) by Write when the chaos layer
// tears the connection down mid-frame.
var ErrInjectedReset = fmt.Errorf("testkit: injected connection reset")

// WrapConn wraps c with chaos faults drawn from the stream-th PRNG
// stream of cfg.Seed.
func WrapConn(c net.Conn, cfg Config, stream int64) *Conn {
	return &Conn{Conn: c, cfg: cfg, rng: rand.New(rand.NewSource(mix(cfg.Seed, stream)))}
}

// Write delivers b through the fault pipeline: coalescing, corruption,
// mid-frame reset, latency, and fragment splitting, in that order. It
// reports len(b) consumed on success even when bytes were held back for
// coalescing — Flush or Close delivers them.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return 0, net.ErrClosed
	}
	if c.cfg.CoalesceProb > 0 && c.rng.Float64() < c.cfg.CoalesceProb {
		c.pend = append(c.pend, b...)
		return len(b), nil
	}
	data := b
	if len(c.pend) > 0 {
		data = append(c.pend, b...)
		c.pend = nil
	}
	if len(data) == 0 {
		return 0, nil
	}
	if c.cfg.CorruptProb > 0 && c.rng.Float64() < c.cfg.CorruptProb {
		data = corrupt(append([]byte(nil), data...), c.rng)
	}
	if c.cfg.ResetProb > 0 && c.rng.Float64() < c.cfg.ResetProb {
		n := c.rng.Intn(len(data))
		c.Conn.Write(data[:n]) // best-effort partial frame
		c.broken = true
		// Tear down the send side with a FIN, not an RST: a full Close
		// with unread inbound data discards kernel-buffered outbound
		// bytes too, silently destroying earlier fully-written frames.
		// The reset's loss must stay bounded to the interrupted frame,
		// or scenario accounting would be meaningless.
		if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		} else {
			c.Conn.Close()
		}
		return 0, fmt.Errorf("%w after %d of %d bytes", ErrInjectedReset, n, len(data))
	}
	c.sleep()
	if c.cfg.SplitProb > 0 && len(data) > 1 && c.rng.Float64() < c.cfg.SplitProb {
		cut := 1 + c.rng.Intn(len(data)-1)
		if _, err := c.Conn.Write(data[:cut]); err != nil {
			return 0, err
		}
		c.sleep() // the second fragment arrives late: a mid-line stall
		if _, err := c.Conn.Write(data[cut:]); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	if _, err := c.Conn.Write(data); err != nil {
		return 0, err
	}
	return len(b), nil
}

// Flush delivers any coalesced bytes still held back.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// flushLocked delivers (or, broken, drops) the coalesced bytes.
//
// voiceprintvet:holds mu
func (c *Conn) flushLocked() error {
	if c.broken || len(c.pend) == 0 {
		c.pend = nil
		return nil
	}
	data := c.pend
	c.pend = nil
	_, err := c.Conn.Write(data)
	return err
}

// Close flushes coalesced bytes (chaos holds frames back, it does not
// silently eat them — lost bytes come only from injected resets) and
// closes the underlying connection. After an injected reset only the
// send side is down; Close finishes the job.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.broken {
		c.broken = true
		c.flushLocked()
	}
	return c.Conn.Close()
}

// sleep injects the configured latency with PRNG jitter.
func (c *Conn) sleep() {
	d := c.cfg.Latency
	if c.cfg.Jitter > 0 {
		d += time.Duration(c.rng.Int63n(int64(c.cfg.Jitter)))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// corrupt flips one non-terminator byte of data to a different
// printable byte, preserving line framing so corrupted frames remain
// countable. Frames consisting only of terminators pass unchanged.
func corrupt(data []byte, rng *rand.Rand) []byte {
	for try := 0; try < 16; try++ {
		i := rng.Intn(len(data))
		if data[i] == '\n' || data[i] == '\r' {
			continue
		}
		for {
			r := byte(33 + rng.Intn(94)) // printable ASCII, never \n or \r
			if r != data[i] {
				data[i] = r
				return data
			}
		}
	}
	return data
}

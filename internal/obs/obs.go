// Package obs is the daemon's dependency-free instrumentation layer:
// lock-free counters, gauges and fixed-bucket histograms, plus a
// Registry that renders them in Prometheus text exposition format.
//
// Design constraints, in order:
//
//  1. Zero dependencies. The module vendors nothing; the exposition
//     format is simple enough to emit by hand.
//  2. Hot-path writes are a single atomic RMW (two for histograms). No
//     locks, no maps, no allocation on Observe/Add.
//  3. The zero value of every instrument is ready to use, so metric
//     structs can be plain value fields (`var m Metrics` works) and
//     instruments register with a Registry only when something needs to
//     render them.
//
// Instruments are owned by their embedding struct; a Registry holds
// references and render metadata (name, help, type, optional constant
// label), never the values themselves. Building a Registry is cheap, so
// callers may construct one per admin handler rather than sharing a
// global.
package obs

import "sync/atomic"

// Counter is a lock-free monotonic counter. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value. The zero value is ready to
// use; all methods are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Fixture for the lockdiscipline analyzer: guardedby/holds enforcement,
// upgrade and pairing bugs, fresh-object and closure semantics, and
// annotation validation, including annotations on exported names.
package fixture

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int // voiceprintvet:guardedby mu
}

type Table struct {
	mu   sync.RWMutex
	rows map[string]int // voiceprintvet:guardedby mu
}

// Good: a same-level Lock dominates the access.
func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Good: a deferred unlock keeps the lock held to function exit.
func (c *Counter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Bad: no lock at all.
func (c *Counter) Peek() int {
	return c.n // want "c\\.n is guarded by c\\.mu, which is not held here"
}

// Good: reads under the read lock.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Bad: writes need the exclusive lock.
func (t *Table) BadWrite(k string) {
	t.mu.RLock()
	t.rows[k] = 1 // want "write to t\\.rows while t\\.mu is held only for reading"
	t.mu.RUnlock()
}

// Bad: delete mutates the map, so it is a write too.
func (t *Table) BadDelete(k string) {
	t.mu.RLock()
	delete(t.rows, k) // want "write to t\\.rows while t\\.mu is held only for reading"
	t.mu.RUnlock()
}

// Bad: read-to-write upgrade deadlocks.
func (t *Table) Upgrade() {
	t.mu.RLock()
	t.mu.Lock() // want "read-to-write upgrade deadlocks"
	t.mu.Unlock()
	t.mu.RUnlock()
}

// Bad: double Lock self-deadlocks.
func (c *Counter) Double() {
	c.mu.Lock()
	c.mu.Lock() // want "self-deadlock"
	c.mu.Unlock()
}

// Bad: defer acquires at exit instead of releasing.
func (c *Counter) DeferLock() {
	defer c.mu.Lock() // want "defer c\\.mu\\.Lock\\(\\) acquires the lock at function exit"
}

// Bad: no unlock on any path.
func (c *Counter) Leak() {
	c.mu.Lock() // want "c\\.mu\\.Lock\\(\\) in Leak with no Unlock anywhere in the function"
	c.n = 1
}

// Bad: a read lock's RUnlock does not release the exclusive Lock taken
// after it.
func (t *Table) LeakAfterRead(k string) {
	t.mu.RLock()
	_ = t.rows[k]
	t.mu.RUnlock()
	t.mu.Lock() // want "t\\.mu\\.Lock\\(\\) in LeakAfterRead with no Unlock anywhere in the function"
	t.rows[k] = 1
}

// Good: the holds precondition stands in for a local lock.
//
// voiceprintvet:holds mu
func (c *Counter) bump() {
	c.n++
}

// Good: call site holds the mutex exclusively.
func (c *Counter) LockedBump() {
	c.mu.Lock()
	c.bump()
	c.mu.Unlock()
}

// Bad: holds precondition violated at the call site.
func (c *Counter) UnlockedBump() {
	c.bump() // want "call to bump requires holding c\\.mu exclusively"
}

// Good: a freshly allocated object cannot be shared yet.
func NewCounter() *Counter {
	c := &Counter{}
	c.n = 1
	c.bump()
	return c
}

// Good: zero-value locals are fresh too.
func Zero() int {
	var c Counter
	c.n = 7
	return c.n
}

// Bad: a closure may run on another goroutine, so it cannot inherit its
// definer's locks.
func (c *Counter) SpawnBad() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "c\\.n is guarded by c\\.mu, which is not held here"
	}()
}

// Good: the closure takes the lock itself.
func (c *Counter) SpawnGood() {
	go func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}()
}

// Good: the early-exit unlock idiom — the branch terminates, so the
// lock still dominates the fall-through path.
func (t *Table) Put(k string, v int) bool {
	t.mu.Lock()
	if t.rows == nil {
		t.mu.Unlock()
		return false
	}
	t.rows[k] = v
	t.mu.Unlock()
	return true
}

// Bad: an unlock on a fall-through branch means the lock no longer
// dominates the statements after the if.
func (t *Table) Flaky(k string) int {
	t.mu.RLock()
	if len(t.rows) == 0 {
		t.mu.RUnlock()
	}
	return t.rows[k] // want "t\\.rows is guarded by t\\.mu, which is not held here"
}

// Bad: annotations on exported names could be bypassed from another
// package, where no check runs.
type Exposed struct {
	mu    sync.Mutex
	Total int // voiceprintvet:guardedby mu // want "guardedby on exported field Exposed\\.Total"
}

// voiceprintvet:holds mu
func (c *Counter) Bump() { // want "holds on exported method Counter\\.Bump"
	c.n++
}

type badTarget struct {
	x int // voiceprintvet:guardedby gu // want "struct badTarget has no sync\\.Mutex or sync\\.RWMutex field \"gu\""
}

type selfGuard struct {
	mu sync.Mutex // voiceprintvet:guardedby mu // want "a mutex does not guard itself"
}

// voiceprintvet:holds mu
func freeFunc() {} // want "only methods can hold a receiver mutex"

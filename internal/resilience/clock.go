package resilience

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock abstracts the passage of time for stage deadlines and injected
// stalls, so the whole resilience layer is deterministic under a
// FakeClock in tests while production uses the wall clock.
type Clock interface {
	// Sleep blocks for d or until ctx is done, returning the context's
	// cause in the latter case and nil otherwise.
	Sleep(ctx context.Context, d time.Duration) error
	// WithTimeout derives a context that is cancelled with
	// context.DeadlineExceeded after d of this clock's time.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// WallClock is the production clock. Its only clock interaction is the
// timer-based sleep below; it never exposes absolute time, so no
// timestamp can leak into model state or serialized output.
type WallClock struct{}

// Sleep implements Clock using a real timer.
func (WallClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return CauseOrErr(ctx)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return CauseOrErr(ctx)
	case <-t.C:
		return nil
	}
}

// WithTimeout implements Clock via context.WithTimeout.
func (WallClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// FakeClock is a manual clock for deterministic tests: Sleep advances a
// virtual now instantly and fires every timeout context whose deadline
// has passed, so stalls and deadlines run in microseconds and always the
// same way. It is safe for concurrent use
// (worker-pool tasks may sleep in parallel).
type FakeClock struct {
	mu      sync.Mutex
	now     time.Duration
	nextID  int
	pending map[int]*fakeTimeout
}

type fakeTimeout struct {
	deadline time.Duration
	cancel   context.CancelCauseFunc
}

// NewFakeClock returns a fake clock starting at virtual time zero.
func NewFakeClock() *FakeClock {
	return &FakeClock{pending: make(map[int]*fakeTimeout)}
}

// Sleep implements Clock: it advances virtual time by d, expires any
// timeout contexts the advance passed, and reports ctx's cause if ctx
// ended (before or because of the advance).
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := CauseOrErr(ctx); err != nil {
		return err
	}
	c.advance(d)
	return CauseOrErr(ctx)
}

// advance moves virtual time forward and fires passed deadlines.
func (c *FakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	c.expireLocked()
}

// expireLocked cancels every registered timeout whose deadline passed, in
// deadline order so nested budgets fire deterministically.
func (c *FakeClock) expireLocked() {
	var due []int
	for id, t := range c.pending {
		if t.deadline <= c.now {
			due = append(due, id)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if c.pending[due[i]].deadline != c.pending[due[j]].deadline {
			return c.pending[due[i]].deadline < c.pending[due[j]].deadline
		}
		return due[i] < due[j]
	})
	for _, id := range due {
		c.pending[id].cancel(context.DeadlineExceeded)
		delete(c.pending, id)
	}
}

// WithTimeout implements Clock: the returned context is cancelled with
// context.DeadlineExceeded once Sleep advances virtual time past d.
func (c *FakeClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	child, cancel := context.WithCancelCause(ctx)
	id := c.register(d, cancel)
	return child, func() {
		c.unregister(id)
		cancel(context.Canceled)
	}
}

// register enrolls a timeout deadline and returns its handle; a d ≤ 0
// deadline fires immediately.
func (c *FakeClock) register(d time.Duration, cancel context.CancelCauseFunc) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	c.pending[id] = &fakeTimeout{deadline: c.now + d, cancel: cancel}
	if d <= 0 {
		c.expireLocked()
	}
	return id
}

// unregister withdraws a timeout that was cancelled before it fired.
func (c *FakeClock) unregister(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, id)
}

// Now returns the current virtual time.
func (c *FakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Package sim provides a deterministic discrete-event simulation engine.
//
// All E3 experiments run on virtual time: an event heap ordered by
// timestamp (ties broken by insertion sequence, so runs are fully
// deterministic). Virtual time is expressed in seconds as float64, which
// keeps latency/throughput math simple and avoids time.Duration overflow
// for long simulated horizons.
//
// The heap is an index-based value heap: events live inline in the
// backing slice, which doubles as the free list — a popped slot is reused
// by the next push, so steady-state scheduling performs no allocation at
// all (the paper-scale traces push tens of millions of events through
// this structure; see README "Data-plane performance"). Pop order depends
// only on the (at, seq) total order, never on the heap's internal layout,
// so it is bit-identical to the container/heap reference implementation
// the soak and equivalence tests keep as their oracle.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time = float64

// Event is a scheduled callback. Fn runs when the engine's clock reaches At.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// less orders events by timestamp, insertion sequence breaking ties.
// Exactness is the point: two events are simultaneous only when their
// timestamps are bit-identical. An epsilon here would merge
// close-but-distinct times and reorder causally dependent events.
func (e *event) less(o *event) bool {
	if e.at != o.at { //e3:exactfloat heap tie-break needs bitwise equality
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on the caller's
// goroutine.
type Engine struct {
	now Time
	seq uint64
	// events is a binary min-heap of inline event values ordered by
	// (at, seq); the slice's spare capacity is the free list.
	events []event
	// Processed counts events executed, for diagnostics and runaway guards.
	processed uint64
	// limit aborts Run after this many events (0 = no limit). It exists to
	// turn infinite-loop bugs into errors instead of hangs.
	limit uint64
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetEventLimit aborts Run with an error after n events (0 disables the
// guard).
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// EventLimit reports the configured event limit (0 = no limit), so
// drivers can install a default runaway guard without clobbering a
// caller's stricter one.
func (e *Engine) EventLimit() uint64 { return e.limit }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it is always a model bug and silently clamping it would
// corrupt causality.
//
//e3:hotpath every scheduled event passes through here; steady-state must not allocate
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", t))
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, fn: fn})
	e.siftUp(len(e.events) - 1)
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) {
	e.At(e.now+d, fn)
}

// Pending reports the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.events) }

// siftUp restores the heap invariant after appending at index i.
func (e *Engine) siftUp(i int) {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the heap invariant after replacing the root.
func (e *Engine) siftDown() {
	h := e.events
	n := len(h)
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h[right].less(&h[left]) {
			least = right
		}
		if !h[least].less(&h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event ran.
//
//e3:hotpath pop path runs once per simulated event; see README "Data-plane performance"
func (e *Engine) Step() bool {
	n := len(e.events)
	if n == 0 {
		return false
	}
	at, fn := e.events[0].at, e.events[0].fn
	e.events[0] = e.events[n-1]
	// Zero the vacated tail slot so the callback (and anything it
	// captures) does not linger in the backing array past execution.
	e.events[n-1] = event{}
	e.events = e.events[:n-1]
	e.siftDown()
	e.now = at
	e.processed++
	fn()
	return true
}

// limitErr reports an event-limit abort unambiguously: callers chaining
// Run windows must be able to tell a limit abort (work still pending)
// from a drained queue.
func (e *Engine) limitErr() error {
	return fmt.Errorf("sim: event limit %d exceeded at t=%v with %d event(s) still pending",
		e.limit, e.now, len(e.events))
}

// Run executes events until the queue drains or the next event lies beyond
// until; the clock is left at the time of the last executed event (or at
// until, whichever is later, so callers can chain Run calls on a shared
// timeline). It returns an error only if the event limit is exceeded.
func (e *Engine) Run(until Time) error {
	for len(e.events) > 0 && e.events[0].at <= until {
		if e.limit > 0 && e.processed >= e.limit {
			return e.limitErr()
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// RunAll executes every pending event (including ones scheduled by other
// events) until the queue drains.
func (e *Engine) RunAll() error {
	for len(e.events) > 0 {
		if e.limit > 0 && e.processed >= e.limit {
			return e.limitErr()
		}
		e.Step()
	}
	return nil
}

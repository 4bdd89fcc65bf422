package sim

import "container/heap"

// ReferenceEngine is the pre-fast-path event loop, kept verbatim as a
// test oracle and benchmark baseline: a container/heap of per-event
// pointer allocations (one heap allocation plus interface boxing per
// scheduled event). The equivalence and soak tests in fastpath_test.go
// assert that Engine executes any schedule in exactly the order
// ReferenceEngine does, and BenchmarkReferenceEngine* in bench_test.go
// measure the fast engine's ns and allocs per event against it — the
// same test-only oracle pattern the planner keeps in
// internal/optimizer/reference_test.go.
type ReferenceEngine struct {
	now       Time
	seq       uint64
	events    refEventHeap
	processed uint64
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }

func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at { //e3:exactfloat heap tie-break needs bitwise equality
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refEventHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// NewReferenceEngine returns a reference engine with the clock at 0.
func NewReferenceEngine() *ReferenceEngine {
	return &ReferenceEngine{}
}

// Now reports the current virtual time.
func (e *ReferenceEngine) Now() Time { return e.now }

// Processed reports how many events have executed so far.
func (e *ReferenceEngine) Processed() uint64 { return e.processed }

// Pending reports the number of events waiting to run.
func (e *ReferenceEngine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute virtual time t.
func (e *ReferenceEngine) At(t Time, fn func()) {
	e.seq++
	heap.Push(&e.events, &refEvent{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *ReferenceEngine) After(d float64, fn func()) {
	e.At(e.now+d, fn)
}

// Step executes the single earliest pending event.
func (e *ReferenceEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*refEvent)
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

// RunAll executes every pending event until the queue drains.
func (e *ReferenceEngine) RunAll() {
	for e.Step() {
	}
}

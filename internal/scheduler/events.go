package scheduler

import (
	"e3/internal/exec"
	"e3/internal/sim"
	"e3/internal/workload"
)

// The per-batch engine events of the data plane are recycled objects, not
// closures: each carries its payload and a fire method value built once,
// so scheduling one allocates nothing in steady state. An event goes back
// to its owner's free list only when it fires — the engine has no
// cancellation, so until then it is still in the heap. Recycling changes
// neither the (at, seq) order nor the event count.

// completionEvent delivers one group of completions that share a
// timestamp, in slice order — the order the per-sample events it replaces
// would have run in (consecutive seq at equal time).
type completionEvent struct {
	q     *completionEvents
	comps []exec.Completion
	// buf is a completion buffer the event owns across occupants: a runner
	// that executes straight into it (Pipeline) keeps its grown capacity
	// with the event. Runners that hand in slices of their own leave it
	// empty.
	buf []exec.Completion
	fn  func()
}

// completionEvents is one runner's completion-event free list.
type completionEvents struct {
	eng  *sim.Engine
	coll *Collector
	free []*completionEvent
}

// get takes a free completion event, building one only while the number
// in flight is still growing.
//
//e3:hotpath runs once per executed batch; the free-list hit path must not allocate
func (q *completionEvents) get() *completionEvent {
	if k := len(q.free); k > 0 {
		ev := q.free[k-1]
		q.free = q.free[:k-1]
		return ev
	}
	ev := &completionEvent{q: q} //e3:alloc warm-up: one event per completion group in flight at the peak
	ev.fn = ev.fire
	return ev
}

// after schedules ev to complete comps d seconds from now.
func (q *completionEvents) after(ev *completionEvent, d float64, comps []exec.Completion) {
	ev.comps = comps
	q.eng.After(d, ev.fn)
}

// fire is the event body: every completion of the group finishes at
// the event's time, then the event returns to the free list.
//
//e3:hotpath runs once per completion group; Complete fans out to every observer
func (ev *completionEvent) fire() {
	q := ev.q
	done := q.eng.Now()
	for _, c := range ev.comps {
		q.coll.Complete(c.Sample, done, c.ExitLayer)
	}
	q.put(ev)
}

// put returns an event that has fired, or was never scheduled, to the
// free list.
func (q *completionEvents) put(ev *completionEvent) {
	ev.comps = nil
	q.free = append(q.free, ev)
}

// transferEvent lands a batch of survivors, whose activations were sent to
// target, in stage si's merge queue.
type transferEvent struct {
	p         *Pipeline
	si        int
	survivors []workload.Sample
	target    *instance
	fn        func()
}

// getTransfer takes a free transfer event, building one only while the
// number in flight is still growing.
//
//e3:hotpath runs once per forwarded survivor batch; the free-list hit path must not allocate
func (p *Pipeline) getTransfer() *transferEvent {
	if k := len(p.xferFree); k > 0 {
		ev := p.xferFree[k-1]
		p.xferFree = p.xferFree[:k-1]
		return ev
	}
	ev := &transferEvent{p: p} //e3:alloc warm-up: one event per survivor batch in flight at the peak
	ev.fn = ev.fire
	return ev
}

// fire is the event body. The event is back on the free list before the
// merge runs, so a dispatch that merge triggers can reuse it.
//
//e3:hotpath runs once per forwarded survivor batch
func (ev *transferEvent) fire() {
	p, si, survivors, target := ev.p, ev.si, ev.survivors, ev.target
	ev.survivors, ev.target = nil, nil
	p.xferFree = append(p.xferFree, ev)
	p.receive(si, survivors, target)
}

package serving

import (
	"testing"

	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/workload"
)

// fakeRunner records ingested batches against a real collector so batcher
// tests can observe dispatch/drop decisions without a cluster.
type fakeRunner struct {
	coll    *scheduler.Collector
	batches [][]workload.Sample
}

func (f *fakeRunner) Ingest(b []workload.Sample)      { f.batches = append(f.batches, b) }
func (f *fakeRunner) Collector() *scheduler.Collector { return f.coll }

func (f *fakeRunner) ingested() int {
	n := 0
	for _, b := range f.batches {
		n += len(b)
	}
	return n
}

// backloggedRunner additionally reports a fixed queueing delay, like the
// serial runner does while a round is in flight.
type backloggedRunner struct {
	fakeRunner
	delay float64
}

func (r *backloggedRunner) BacklogDelay() float64 { return r.delay }

// Regression: a full-batch dispatch must supersede the flush timer armed
// for the old queue head. The seed left the armed flag set, so a sample
// arriving right after a dispatch never got its own (earlier) timer and
// was only examined when the stale timer fired — long past its deadline.
func TestBatcherRearmsFlushAfterFullDispatch(t *testing.T) {
	eng := sim.NewEngine()
	f := &fakeRunner{coll: scheduler.NewCollector(12, 1.0, 0)}
	b := NewBatcher(eng, f, 2, 0.01, 0.2)

	// A and B fill the batch at t=0 with a lax 1s SLO: the timer armed for
	// A fires at 0.9875, then the pair dispatches immediately.
	eng.At(0, func() {
		b.Arrive(workload.Sample{ID: 1, Arrival: 0, Deadline: 1.0})
		b.Arrive(workload.Sample{ID: 2, Arrival: 0, Deadline: 1.0})
	})
	// C arrives just after with a tight 50ms SLO. Its forced-dispatch
	// point is t≈0.0385; the stale timer from A fires at 0.9875, when C is
	// hopeless.
	eng.At(0.001, func() {
		b.Arrive(workload.Sample{ID: 3, Arrival: 0.001, Deadline: 0.051})
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if f.coll.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (stale flush timer shed a viable sample)", f.coll.Dropped)
	}
	if got := f.ingested(); got != 3 {
		t.Errorf("ingested = %d samples, want 3", got)
	}
}

// Regression: the flush fire time must include the runner's backlog, as
// admission control already does. The seed computed the fire time from
// EstService alone, so with a backlogged runner the timer fired after the
// head's effective slack had run out and the flush shed it instead of
// dispatching it.
func TestBatcherFlushTimerAccountsForBacklog(t *testing.T) {
	eng := sim.NewEngine()
	r := &backloggedRunner{
		fakeRunner: fakeRunner{coll: scheduler.NewCollector(12, 0.08, 0)},
		delay:      0.05,
	}
	b := NewBatcher(eng, r, 8, 0.01, 0.2)

	// Viable at arrival: slack 0.08·0.8 = 0.064 ≥ effective service 0.06.
	// The forced-dispatch point with backlog is t=0.005; ignoring backlog
	// it is t=0.0675, by which time slack (0.01) < 0.06 and the sample is
	// shed as hopeless.
	eng.At(0, func() {
		b.Arrive(workload.Sample{ID: 1, Arrival: 0, Deadline: 0.08})
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if r.coll.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (flush timer ignored backlog)", r.coll.Dropped)
	}
	if got := r.ingested(); got != 1 {
		t.Errorf("ingested = %d samples, want 1", got)
	}
}

// Regression: closed-loop arrival times must come from an integer counter.
// The seed accumulated `at += interval` in floating point, so over longer
// horizons the final batch drifted past the horizon and was dropped:
// batch=1 at rate 10 over 2s offered 19 batches instead of 20.
func TestRunClosedLoopOffersExactBatchCount(t *testing.T) {
	eng := sim.NewEngine()
	f := &fakeRunner{coll: scheduler.NewCollector(12, 0.1, 0)}
	gen := workload.NewGenerator(workload.Mix(0.8), 1)
	_, _ = RunClosedLoop(eng, f, gen, 1, 10, 2, 0.1)
	if got, want := len(f.batches), 20; got != want {
		t.Fatalf("offered %d batches, want %d (float drift dropped the final interval)", got, want)
	}
}

// Regression for recycled flush events: a timer superseded by a dispatch
// and then re-armed for a later head stays in the engine's heap, and when
// it fires it must still do nothing. Were the superseded event recycled
// before it fired, the re-arm would reuse it, the heap entry would carry
// the live generation, and it would flush early and arm a second timer.
func TestBatcherStaleFlushAfterRearmIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	f := &fakeRunner{coll: scheduler.NewCollector(12, 1.0, 0)}
	b := NewBatcher(eng, f, 2, 0.01, 0.2)

	// A arms a timer for its forced-dispatch point 0.08725; B fills the
	// batch, the pair dispatches and that timer is superseded.
	eng.At(0, func() {
		b.Arrive(workload.Sample{ID: 1, Arrival: 0, Deadline: 0.1})
		b.Arrive(workload.Sample{ID: 2, Arrival: 0, Deadline: 0.1})
	})
	// C re-arms for its own, later point 0.98825 while the stale timer is
	// still pending.
	eng.At(0.001, func() {
		b.Arrive(workload.Sample{ID: 3, Arrival: 0.001, Deadline: 1.001})
	})
	if err := eng.Run(0.5); err != nil {
		t.Fatal(err)
	}
	wantAt := 1.001 - 1.02*b.EstService/(1-b.SlackFrac)
	if b.flushAt != wantAt || eng.Pending() != 1 || b.QueueLen() != 1 || len(f.batches) != 1 {
		t.Fatalf("after the stale timer: flushAt=%v pending=%d queued=%d dispatched=%d; want %v/1/1/1",
			b.flushAt, eng.Pending(), b.QueueLen(), len(f.batches), wantAt)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(f.batches) != 2 || eng.Now() != wantAt || eng.Processed() != 4 {
		t.Fatalf("C dispatched in %d batch(es) at t=%v after %d events; want 2 at %v after 4",
			len(f.batches), eng.Now(), eng.Processed(), wantAt)
	}
}

// poolRunner returns every ingested batch to the pool, so a batcher in
// front of it reaches an allocation-free steady state.
type poolRunner struct {
	coll *scheduler.Collector
	pool *workload.BatchPool
}

func (r *poolRunner) Ingest(b []workload.Sample)      { r.pool.Put(b) }
func (r *poolRunner) Collector() *scheduler.Collector { return r.coll }

// TestBatcherArmFireAllocsZero: one arrival arms the flush timer, the
// timer fires under SLA pressure and dispatches a partial batch. With a
// pool attached and the flush event recycled, the cycle allocates nothing.
func TestBatcherArmFireAllocsZero(t *testing.T) {
	eng := sim.NewEngine()
	pool := workload.NewBatchPool()
	b := NewBatcher(eng, &poolRunner{coll: scheduler.NewCollector(12, 0.05, 0), pool: pool}, 8, 0.01, 0.2)
	b.SetPool(pool)
	id := int64(0)
	cycle := func() {
		id++
		now := eng.Now()
		b.Arrive(workload.Sample{ID: id, Arrival: now, Deadline: now + 0.05})
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	before := eng.Processed()
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Fatalf("arm-and-fire cycle allocates %.2f times, want 0", got)
	}
	if fired := eng.Processed() - before; fired != 1001 {
		t.Fatalf("%d flush events over 1001 cycles, want one each", fired)
	}
}

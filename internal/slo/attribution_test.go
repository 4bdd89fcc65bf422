package slo

import (
	"math"
	"testing"

	"e3/internal/audit"
	"e3/internal/workload"
)

func sample(id int64, arrival float64) workload.Sample {
	return workload.Sample{ID: id, Arrival: arrival, Deadline: arrival + 0.1}
}

// drive runs one request through the canonical pipeline event sequence:
// queue → dispatch(s0) → execute(s0) → merge(s1) → dispatch(s1) →
// execute(s1) → complete.
func drive(a *Attribution, id int64) workload.Sample {
	s := sample(id, 1.0)
	a.Queued(s, 1.0)
	a.Dispatched(s, 1.2, 0)
	a.Executed(0, []workload.Sample{s}, 1.3, 1.5)
	a.Merged(s, 1.6, 1)
	a.Dispatched(s, 1.8, 1)
	a.Executed(1, []workload.Sample{s}, 1.9, 2.1)
	a.Completed(s, 2.2)
	return s
}

func TestAttributionPipelineSequence(t *testing.T) {
	a := NewAttribution(4)
	drive(a, 7)

	completed, dropped, attributed := a.Counts()
	if completed != 1 || dropped != 0 || attributed != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/0/1", completed, dropped, attributed)
	}
	if a.Mismatches() != 0 || a.Open() != 0 {
		t.Fatalf("mismatches=%d open=%d, want 0/0", a.Mismatches(), a.Open())
	}
	slow := a.Slowest()
	if len(slow) != 1 {
		t.Fatalf("got %d retained breakdowns, want 1", len(slow))
	}
	bd := slow[0]
	if bd.ID != 7 || bd.Arrival != 1.0 || bd.Completion != 2.2 {
		t.Fatalf("breakdown identity = %+v", bd)
	}
	// Components partition [1.0, 2.2] exactly.
	if got := bd.Sum(); math.Abs(got-bd.E2E()) > SumTolerance {
		t.Fatalf("sum %v != e2e %v", got, bd.E2E())
	}
	for comp, want := range map[Component]float64{
		CompQueueWait: 0.2, // 1.0 -> 1.2
		CompBacklog:   0.2, // 1.2 -> 1.3, 1.8 -> 1.9
		CompCompute:   0.4, // 1.3 -> 1.5, 1.9 -> 2.1
		CompTransfer:  0.1, // 1.5 -> 1.6
		CompFuse:      0.2, // 1.6 -> 1.8
		CompCollector: 0.1, // 2.1 -> 2.2
	} {
		if got := bd.Component(comp); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%v = %v, want %v", comp, got, want)
		}
	}
	if got := a.ComponentSeconds(CompCompute); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("aggregate compute = %v, want 0.4", got)
	}
}

func TestAttributionEarlyExitTruncatesCompute(t *testing.T) {
	// Data-parallel early exit: the request completes at 1.4, before its
	// batch's compute ends at 1.6 — the pending compute part must truncate
	// at the completion boundary so the breakdown still partitions.
	a := NewAttribution(4)
	s := sample(1, 1.0)
	a.Queued(s, 1.0)
	a.Dispatched(s, 1.1, 0)
	a.Executed(0, []workload.Sample{s}, 1.2, 1.6)
	a.Completed(s, 1.4)

	if a.Mismatches() != 0 {
		t.Fatalf("mismatches = %d, want 0", a.Mismatches())
	}
	bd := a.Slowest()[0]
	if got := bd.Component(CompCompute); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("truncated compute = %v, want 0.2 (1.2 -> 1.4)", got)
	}
	if got := bd.Component(CompCollector); got != 0 {
		t.Fatalf("collector = %v, want 0 (completion inside compute)", got)
	}
}

func TestAttributionDropReleasesWithoutBreakdown(t *testing.T) {
	a := NewAttribution(4)
	s := sample(2, 1.0)
	a.Queued(s, 1.0)
	a.Dropped(s, 1.05)
	completed, dropped, attributed := a.Counts()
	if completed != 0 || dropped != 1 || attributed != 0 {
		t.Fatalf("counts = %d/%d/%d, want 0/1/0", completed, dropped, attributed)
	}
	if a.Open() != 0 || len(a.Slowest()) != 0 {
		t.Fatalf("drop left state behind: open=%d slowest=%d", a.Open(), len(a.Slowest()))
	}
}

func TestAttributionFlagsBrokenSequence(t *testing.T) {
	// Completion before arrival cannot partition [arrival, completion];
	// the breakdown must be flagged, not silently accepted.
	a := NewAttribution(4)
	s := sample(3, 1.0)
	a.Queued(s, 1.0)
	a.Completed(s, 0.5)
	if a.Mismatches() != 1 {
		t.Fatalf("mismatches = %d, want 1", a.Mismatches())
	}
	rep := &audit.Report{}
	a.Reconcile(rep)
	if rep.OK() {
		t.Fatal("Reconcile accepted a flagged attribution")
	}
}

func TestAttributionTopKRetention(t *testing.T) {
	a := NewAttribution(2)
	// Three requests with e2e 1s, 3s, 2s; top-2 must keep 3s and 2s.
	for i, e2e := range []float64{1, 3, 2} {
		s := sample(int64(i), 0)
		a.Queued(s, 0)
		a.Dispatched(s, 0.1, 0)
		a.Executed(0, []workload.Sample{s}, 0.2, e2e)
		a.Completed(s, e2e)
	}
	slow := a.Slowest()
	if len(slow) != 2 || slow[0].E2E() != 3 || slow[1].E2E() != 2 {
		t.Fatalf("top-2 = %+v", slow)
	}
}

func TestAttributionStrideKeepsExactTotals(t *testing.T) {
	a := NewAttribution(4)
	a.SetStride(2)
	for i := int64(0); i < 10; i++ {
		drive(a, i)
	}
	completed, _, attributed := a.Counts()
	if completed != 10 {
		t.Fatalf("completed = %d, want population-exact 10", completed)
	}
	if attributed != 5 {
		t.Fatalf("attributed = %d, want 5 (stride 2)", attributed)
	}
	// Sampled mode must still reconcile against a matching report.
	rep := &audit.Report{Completed: 10}
	a.Reconcile(rep)
	if !rep.OK() {
		t.Fatalf("sampled reconcile violations: %v", rep.Violations)
	}
}

func TestAttributionReconcileCountMismatch(t *testing.T) {
	a := NewAttribution(4)
	drive(a, 1)
	rep := &audit.Report{Completed: 2}
	a.Reconcile(rep)
	if rep.OK() {
		t.Fatal("Reconcile missed a completed-count disagreement")
	}
}

func TestAttributionNilSafe(t *testing.T) {
	var a *Attribution
	s := sample(1, 0)
	a.Queued(s, 0)
	a.Dispatched(s, 0, 0)
	a.Executed(0, []workload.Sample{s}, 0, 1)
	a.Merged(s, 1, 1)
	a.Completed(s, 1)
	a.Dropped(s, 1)
	a.SetStride(4)
	a.Reconcile(&audit.Report{})
	if a.Enabled() || a.Open() != 0 || a.Mismatches() != 0 || a.Slowest() != nil {
		t.Fatal("nil attribution must be inert")
	}
	if d := a.Dump(); d == nil || d.Completed != 0 {
		t.Fatalf("nil Dump = %+v", d)
	}
}

func TestComponentJSONRoundTrip(t *testing.T) {
	for c := Component(0); c < NumComponents; c++ {
		got, ok := ComponentFromString(c.String())
		if !ok || got != c {
			t.Fatalf("component %d does not round-trip via %q", c, c.String())
		}
	}
	if _, ok := ComponentFromString("bogus"); ok {
		t.Fatal("ComponentFromString accepted an unknown name")
	}
}

// TestAttributionLifecycleAllocsZero: once the slots, the id index and
// each slot's part buffer have grown, a request's whole lifecycle — open,
// dispatch, execute, transfer, re-dispatch, execute, complete — reuses
// them and allocates nothing.
func TestAttributionLifecycleAllocsZero(t *testing.T) {
	a := NewAttribution(4)
	id := int64(0)
	batch := make([]workload.Sample, 1)
	cycle := func() {
		id++
		base := float64(id)
		s := workload.Sample{ID: id, Arrival: base, Deadline: base + 1}
		batch[0] = s
		a.Queued(s, base)
		a.Dispatched(s, base+0.1, 0)
		a.Executed(0, batch, base+0.2, base+0.3)
		a.Merged(s, base+0.4, 1)
		a.Dispatched(s, base+0.5, 1)
		a.Executed(1, batch, base+0.6, base+0.7)
		a.Completed(s, base+0.8)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Fatalf("request lifecycle allocates %.2f times, want 0", got)
	}
	if a.Mismatches() != 0 || a.Open() != 0 {
		t.Fatalf("mismatches=%d open=%d, want 0/0", a.Mismatches(), a.Open())
	}
}

// TestAttributionFlagsNegativeStage: per-stage compute is indexed by split,
// so a batch executed at a negative stage is a caller bug, reported
// rather than folded.
func TestAttributionFlagsNegativeStage(t *testing.T) {
	a := NewAttribution(4)
	s := sample(1, 1.0)
	a.Dispatched(s, 1.1, 0)
	a.Executed(-1, []workload.Sample{s}, 1.2, 1.3)
	if a.Mismatches() != 1 {
		t.Fatalf("mismatches = %d, want 1", a.Mismatches())
	}
	if d := a.Dump(); len(d.ComputeByStage) != 0 {
		t.Fatalf("negative-stage compute folded: %+v", d.ComputeByStage)
	}
}

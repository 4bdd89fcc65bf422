package audit

import (
	"fmt"
	"sort"
	"strings"
)

// refLedger is the map-backed ledger store, kept as the reference the
// chunked store is checked against (see FuzzLedgerMatchesReference): a
// map from sample id to its event slice, plus first-seen order. It is the
// simplest store that is obviously right, but at exhaustive scale its
// per-sample slices allocate on most events and the GC scans all of them.
type refLedger struct {
	events map[int64][]Event
	order  []int64
	// stride samples per-event detail for ids divisible by it (≤1 =
	// exhaustive).
	stride int64
	// Population-exact O(1) counters, maintained for every event whether
	// or not its sample is tracked in detail.
	arrivedTotal   int
	completedTotal int
	droppedTotal   int
	byReasonTotal  map[Reason]int
}

// newRefLedger returns an empty reference ledger; a stride ≤ 1 is
// exhaustive.
func newRefLedger(stride int64) *refLedger {
	if stride < 1 {
		stride = 1
	}
	return &refLedger{events: make(map[int64][]Event), stride: stride, byReasonTotal: make(map[Reason]int)}
}

// tracked reports whether the sample's per-event detail is stored.
func (l *refLedger) tracked(id int64) bool { return l.stride <= 1 || id%l.stride == 0 }

func (l *refLedger) record(id int64, e Event) {
	if l == nil {
		return
	}
	switch e.Kind {
	case KindArrived:
		l.arrivedTotal++
	case KindCompleted:
		l.completedTotal++
	case KindDropped:
		l.droppedTotal++
		l.byReasonTotal[e.Reason]++
	}
	if !l.tracked(id) {
		return
	}
	if _, seen := l.events[id]; !seen {
		l.order = append(l.order, id)
	}
	l.events[id] = append(l.events[id], e)
}

// Arrived records a sample minted by the generator at virtual time at.
func (l *refLedger) Arrived(id int64, at float64) {
	l.record(id, Event{Kind: KindArrived, At: at})
}

// Queued records admission into a batcher queue.
func (l *refLedger) Queued(id int64, at float64) {
	l.record(id, Event{Kind: KindQueued, At: at})
}

// Dispatched records hand-off to stage's instance (a device index).
func (l *refLedger) Dispatched(id int64, at float64, stage, instance int) {
	l.record(id, Event{Kind: KindDispatched, At: at, Stage: stage, Instance: instance})
}

// Merged records entry into stage's survivor merge queue.
func (l *refLedger) Merged(id int64, at float64, stage int) {
	l.record(id, Event{Kind: KindMerged, At: at, Stage: stage})
}

// Completed records execution finishing with the given 1-based exit layer.
func (l *refLedger) Completed(id int64, at float64, exitLayer int) {
	l.record(id, Event{Kind: KindCompleted, At: at, ExitLayer: exitLayer})
}

// Dropped records the sample being shed for the given reason.
func (l *refLedger) Dropped(id int64, at float64, reason Reason) {
	l.record(id, Event{Kind: KindDropped, At: at, Reason: reason})
}

// Samples reports how many distinct sample IDs have events.
func (l *refLedger) Samples() int {
	if l == nil {
		return 0
	}
	return len(l.order)
}

// Events returns the recorded events for one sample (nil if unknown).
func (l *refLedger) Events(id int64) []Event {
	if l == nil {
		return nil
	}
	return l.events[id]
}

// Verify walks every tracked sample and checks the conservation
// invariants, returning a report with per-stage tallies. A nil ledger
// verifies vacuously (an empty, OK report).
func (l *refLedger) Verify() *Report {
	r := &Report{ByReason: make(map[Reason]int), Stages: make(map[int]*StageFlow), Stride: 1}
	if l == nil {
		return r
	}
	r.Stride = l.stride
	r.Tracked = len(l.order)
	if l.stride > 1 {
		// Sampled mode: population totals come from the exact O(1)
		// counters; per-sample invariants below cover the tracked subset.
		r.Samples = l.arrivedTotal
	} else {
		r.Samples = len(l.order)
	}
	r.Completed = l.completedTotal
	r.Dropped = l.droppedTotal
	for reason, n := range l.byReasonTotal {
		r.ByReason[reason] = n
	}
	stage := func(si int) *StageFlow {
		f := r.Stages[si]
		if f == nil {
			f = &StageFlow{}
			r.Stages[si] = f
		}
		return f
	}
	for _, id := range l.order {
		evs := l.events[id]
		terminals := 0
		lastStage := -1 // last stage the sample was dispatched into
		prevAt := 0.0
		for i, e := range evs {
			if i > 0 && e.At < prevAt {
				r.addViolation("sample %d: %s at t=%v before prior event at t=%v", id, e.Kind, e.At, prevAt)
			}
			prevAt = e.At
			if e.Kind == KindArrived && i != 0 {
				r.addViolation("sample %d: arrival is event #%d, want first", id, i+1)
			}
			switch e.Kind {
			case KindCompleted, KindDropped:
				terminals++
				if i != len(evs)-1 {
					r.addViolation("sample %d: terminal %s followed by %d more event(s)", id, e.Kind, len(evs)-1-i)
				}
			case KindDispatched:
				if e.Stage < lastStage {
					r.addViolation("sample %d: dispatched to stage %d after stage %d", id, e.Stage, lastStage)
				}
				if lastStage >= 0 && e.Stage > lastStage {
					stage(lastStage).Forwarded++
				}
				stage(e.Stage).In++
				lastStage = e.Stage
			}
			if e.Kind == KindDropped && !knownReason(e.Reason) {
				r.addViolation("sample %d: drop reason %q unclassified", id, e.Reason)
			}
		}
		switch {
		case terminals == 0:
			r.addViolation("sample %d: no terminal event (%d event(s), last %s at t=%v)",
				id, len(evs), evs[len(evs)-1].Kind, evs[len(evs)-1].At)
		case terminals > 1:
			r.addViolation("sample %d: %d terminal events, want exactly 1", id, terminals)
		}
		if terminals >= 1 {
			// Attribute the first terminal to the last dispatched stage.
			// (Population-level Completed/Dropped/ByReason totals come from
			// the O(1) counters, exact in both modes; the stage tallies
			// cover the detail-tracked subset.)
			for _, e := range evs {
				if e.Kind == KindCompleted {
					if lastStage >= 0 {
						stage(lastStage).Completed++
					}
					break
				}
				if e.Kind == KindDropped {
					if lastStage >= 0 {
						stage(lastStage).Dropped++
					}
					break
				}
			}
		}
	}
	// Per-stage balance: everything dispatched in must terminate there or
	// be forwarded onward. (Samples stuck mid-stage already violated the
	// terminal check; this catches tally drift in the accounting itself.)
	// Walk stages in index order, not map order: violations are report
	// output and must be byte-identical run to run.
	stageIdx := make([]int, 0, len(r.Stages))
	for si := range r.Stages {
		stageIdx = append(stageIdx, si)
	}
	sort.Ints(stageIdx)
	for _, si := range stageIdx {
		f := r.Stages[si]
		if out := f.Completed + f.Dropped + f.Forwarded; out != f.In {
			r.addViolation("stage %d: in %d ≠ out %d (completed %d + dropped %d + forwarded %d)",
				si, f.In, out, f.Completed, f.Dropped, f.Forwarded)
		}
	}
	return r
}

// Totals reports the population-exact terminal counters in O(1), without
// running a full verification — the flight recorder's ledger snapshot and
// other live views read these. Exact in both exhaustive and sampled modes.
func (l *refLedger) Totals() (arrived, completed, dropped int) {
	if l == nil {
		return 0, 0, 0
	}
	return l.arrivedTotal, l.completedTotal, l.droppedTotal
}

// DropBreakdown returns drops per classified reason without running a full
// verification (for live stats endpoints). The counts are population-exact
// in both exhaustive and sampled modes (maintained as O(1) counters, so
// this no longer walks the event store).
func (l *refLedger) DropBreakdown() map[Reason]int {
	out := make(map[Reason]int)
	if l == nil {
		return out
	}
	for reason, n := range l.byReasonTotal {
		out[reason] = n
	}
	return out
}

// Digest renders every tracked sample's event sequence plus the exact
// population totals as a canonical string. Two runs are behaviorally
// identical exactly when their digests are byte-identical — the property
// the pooled-vs-unpooled determinism tests and the simgate check assert.
func (l *refLedger) Digest() string {
	var b strings.Builder
	if l == nil {
		return ""
	}
	fmt.Fprintf(&b, "totals arrived=%d completed=%d dropped=%d", l.arrivedTotal, l.completedTotal, l.droppedTotal)
	reasons := make([]string, 0, len(l.byReasonTotal))
	for reason := range l.byReasonTotal {
		reasons = append(reasons, string(reason))
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(&b, " %s=%d", reason, l.byReasonTotal[Reason(reason)])
	}
	b.WriteByte('\n')
	for _, id := range l.order {
		fmt.Fprintf(&b, "%d:", id)
		for _, e := range l.events[id] {
			fmt.Fprintf(&b, " %s@%v", e.Kind, e.At)
			if e.Kind == KindDispatched {
				fmt.Fprintf(&b, "(s%d,i%d)", e.Stage, e.Instance)
			}
			if e.Kind == KindMerged {
				fmt.Fprintf(&b, "(s%d)", e.Stage)
			}
			if e.Kind == KindCompleted {
				fmt.Fprintf(&b, "(x%d)", e.ExitLayer)
			}
			if e.Kind == KindDropped {
				fmt.Fprintf(&b, "(%s)", e.Reason)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

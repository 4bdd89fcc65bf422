// Package audit provides a per-sample lifecycle ledger for the serving
// stack. Every sample minted by the workload generator is tracked through
// its transitions — arrived → queued (batcher) → dispatched(stage,
// instance) → merged → completed(exit layer) | dropped(reason) — each with
// its virtual timestamp. At end of run Verify asserts conservation
// invariants: no sample is lost or double-terminated, timestamps are
// monotone per sample, every drop carries a classified reason, and
// per-stage in/out counts balance. The ledger is the simulator's
// self-check: E3's whole value proposition is goodput accounting under
// SLOs (§3.1, §4), so every sample must be accounted exactly once.
//
// The exhaustive ledger costs 32 bytes per event plus 12 per sample. Events
// live in an append-only log of fixed-size chunks of pointer-free records,
// so growth never copies old records and the GC never scans them; each
// sample's records are chained through the log, with dense per-sample
// head/tail/order indices. Events returns a fresh copy of one sample's
// chain, not a view into the store.
//
// A nil *Ledger is valid and records nothing, so call sites wire events
// unconditionally and auditing costs nothing when disabled.
package audit

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind enumerates lifecycle transitions.
type Kind uint8

const (
	// KindArrived marks a sample minted by the generator.
	KindArrived Kind = iota
	// KindQueued marks admission into a batcher queue.
	KindQueued
	// KindDispatched marks hand-off to a runner stage instance.
	KindDispatched
	// KindMerged marks entry into a stage's survivor merge queue.
	KindMerged
	// KindCompleted marks execution finishing (terminal).
	KindCompleted
	// KindDropped marks shedding without completion (terminal).
	KindDropped
)

// String names the kind for violation messages.
func (k Kind) String() string {
	switch k {
	case KindArrived:
		return "arrived"
	case KindQueued:
		return "queued"
	case KindDispatched:
		return "dispatched"
	case KindMerged:
		return "merged"
	case KindCompleted:
		return "completed"
	case KindDropped:
		return "dropped"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Reason classifies why a sample was dropped.
type Reason string

const (
	// ReasonAdmission: shed on arrival — hopeless even if dispatched now.
	ReasonAdmission Reason = "admission"
	// ReasonStaleShed: shed from a runner backlog after its deadline became
	// unreachable (Clockwork-style, §3.1).
	ReasonStaleShed Reason = "stale-shed"
	// ReasonSLAFlush: shed from the batcher queue at an SLA-pressure flush.
	ReasonSLAFlush Reason = "sla-flush"
)

// Event is one recorded transition.
type Event struct {
	Kind Kind
	// At is the virtual time of the transition.
	At float64
	// Stage and Instance locate a dispatch (Instance is a device index).
	Stage, Instance int
	// ExitLayer is the 1-based exit layer of a completion.
	ExitLayer int
	// Reason classifies a drop.
	Reason Reason
}

// Ledger records lifecycle events keyed by sample ID. It is not safe for
// concurrent use; like the sim engine, all recording happens on the event
// loop's goroutine.
//
// A ledger runs in one of two modes. The exhaustive mode (NewLedger)
// stores every event of every sample — the default for experiments and
// the verify gates. The sampled mode (NewSampledLedger) stores per-event
// detail only for every Nth sample ID while still maintaining exact O(1)
// terminal totals for the whole population, so conservation cross-checks
// against the collector and telemetry stay exact at paper-trace scale
// (tens of millions of requests) where exhaustive tracking would dominate
// both memory and the event loop's hot path.
//
// Detail lives in one append-only log of pointer-free records, split into
// fixed-size chunks so growth never copies what is already stored (only
// the first chunk starts small and grows, so a sampled ledger that keeps
// a few hundred records does not pay for a whole chunk). Each
// sample's records form a chain through the log; dense head/tail slices
// indexed by slot (id/stride) hold the chain ends. Sample IDs must be
// positive: a tracked event with an ID ≤ 0 has no slot, so it is counted
// and reported by Verify instead of stored.
type Ledger struct {
	// log is the event store: every chunk but the last holds exactly
	// chunkSize records.
	log [][]rec
	// n is the number of records in the log (int32 caps it at 2^31
	// records, 64 GiB).
	n int32
	// head and tail hold each slot's first and last record (1-based
	// record index; 0 = none yet).
	head, tail []int32
	// order lists slots in first-event order, the order Verify and Digest
	// walk them in.
	order []int32
	// stride samples per-event detail for ids divisible by it (1 =
	// exhaustive).
	stride int64
	// reasons interns drop reasons; a record's reason indexes it, and
	// byReason holds the population drop count per interned reason.
	reasons  []Reason
	byReason []int
	// Population-exact O(1) counters, maintained for every event whether
	// or not its sample is tracked in detail.
	arrivedTotal   int
	completedTotal int
	droppedTotal   int
	// unrecorded counts events the store could not hold: a tracked sample
	// ID with no slot, or a drop reason past the interning table.
	unrecorded int
}

// A chunk holds chunkSize records (128 KiB); the first starts with room
// for firstChunk.
const (
	chunkBits  = 12
	chunkSize  = 1 << chunkBits
	chunkMask  = chunkSize - 1
	firstChunk = 64
	// maxReasons bounds the interned reason table to what rec.reason holds.
	maxReasons = math.MaxUint8 + 1
)

// rec is one stored event. It holds no pointers, so the GC never scans
// the log.
type rec struct {
	at                    float64
	stage, instance, exit int32
	// next is the 1-based index of the sample's next record (0 ends the
	// chain).
	next   int32
	kind   uint8
	reason uint8
}

// knownReasons seeds every ledger's reason table; index 0 is the empty
// reason every non-drop record carries.
var knownReasons = [...]Reason{"", ReasonAdmission, ReasonStaleShed, ReasonSLAFlush}

// NewLedger returns an empty exhaustive ledger.
func NewLedger() *Ledger {
	return &Ledger{
		stride:   1,
		reasons:  append([]Reason(nil), knownReasons[:]...),
		byReason: make([]int, len(knownReasons)),
	}
}

// NewSampledLedger returns a ledger that audits per-sample invariants on
// every stride-th sample ID while keeping exact terminal totals for all
// samples. A stride ≤ 1 is exhaustive.
func NewSampledLedger(stride int64) *Ledger {
	l := NewLedger()
	if stride > 1 {
		l.stride = stride
	}
	return l
}

// Enabled reports whether events are being recorded.
func (l *Ledger) Enabled() bool { return l != nil }

// Stride reports the detail-sampling stride (1 = exhaustive, nil = 0).
func (l *Ledger) Stride() int64 {
	if l == nil {
		return 0
	}
	return l.stride
}

// tracked reports whether the sample's per-event detail is stored.
func (l *Ledger) tracked(id int64) bool { return l.stride <= 1 || id%l.stride == 0 }

// slot maps a tracked id to its dense index; ok is false for an id with
// none (≤ 0, or past what an int32 index holds).
func (l *Ledger) slot(id int64) (int, bool) {
	s := id / l.stride
	return int(s), id > 0 && s <= math.MaxInt32
}

// intern returns r's index in the reason table, adding it on first use.
func (l *Ledger) intern(r Reason) (uint8, bool) {
	for i, known := range l.reasons {
		if known == r {
			return uint8(i), true
		}
	}
	if len(l.reasons) == maxReasons {
		return 0, false
	}
	l.reasons = append(l.reasons, r)
	l.byReason = append(l.byReason, 0)
	return uint8(len(l.reasons) - 1), true
}

// at returns the record at 1-based index i.
func (l *Ledger) at(i int32) *rec { return &l.log[(i-1)>>chunkBits][(i-1)&chunkMask] }

//e3:hotpath runs once per lifecycle event; sampled mode counts in O(1) and must not allocate off the detail path
func (l *Ledger) record(id int64, e Event) {
	if l == nil {
		return
	}
	var reason uint8
	switch e.Kind {
	case KindArrived:
		l.arrivedTotal++
	case KindCompleted:
		l.completedTotal++
	case KindDropped:
		l.droppedTotal++
		ri, ok := l.intern(e.Reason)
		if !ok {
			l.unrecorded++
			return
		}
		l.byReason[ri]++
		reason = ri
	}
	if !l.tracked(id) {
		return
	}
	s, ok := l.slot(id)
	if !ok {
		l.unrecorded++
		return
	}
	for len(l.head) <= s {
		l.head = append(l.head, 0)
		l.tail = append(l.tail, 0)
	}
	last := len(l.log) - 1
	if last < 0 || len(l.log[last]) == chunkSize {
		size := chunkSize
		if last < 0 {
			size = firstChunk
		}
		l.log = append(l.log, make([]rec, 0, size)) //e3:alloc one chunk per chunkSize events; records are pointer-free, so the GC never scans it
		last++
	}
	l.log[last] = append(l.log[last], rec{
		at: e.At, stage: int32(e.Stage), instance: int32(e.Instance), exit: int32(e.ExitLayer),
		kind: uint8(e.Kind), reason: reason,
	})
	l.n++
	if t := l.tail[s]; t != 0 {
		l.at(t).next = l.n
	} else {
		l.head[s] = l.n
		l.order = append(l.order, int32(s))
	}
	l.tail[s] = l.n
}

// chain appends slot s's events to dst, oldest first.
func (l *Ledger) chain(dst []Event, s int32) []Event {
	for i := l.head[s]; i != 0; {
		r := l.at(i)
		dst = append(dst, Event{
			Kind: Kind(r.kind), At: r.at,
			Stage: int(r.stage), Instance: int(r.instance), ExitLayer: int(r.exit),
			Reason: l.reasons[r.reason],
		})
		i = r.next
	}
	return dst
}

// Arrived records a sample minted by the generator at virtual time at.
func (l *Ledger) Arrived(id int64, at float64) {
	l.record(id, Event{Kind: KindArrived, At: at})
}

// Queued records admission into a batcher queue.
func (l *Ledger) Queued(id int64, at float64) {
	l.record(id, Event{Kind: KindQueued, At: at})
}

// Dispatched records hand-off to stage's instance (a device index).
func (l *Ledger) Dispatched(id int64, at float64, stage, instance int) {
	l.record(id, Event{Kind: KindDispatched, At: at, Stage: stage, Instance: instance})
}

// Merged records entry into stage's survivor merge queue.
func (l *Ledger) Merged(id int64, at float64, stage int) {
	l.record(id, Event{Kind: KindMerged, At: at, Stage: stage})
}

// Completed records execution finishing with the given 1-based exit layer.
func (l *Ledger) Completed(id int64, at float64, exitLayer int) {
	l.record(id, Event{Kind: KindCompleted, At: at, ExitLayer: exitLayer})
}

// Dropped records the sample being shed for the given reason.
func (l *Ledger) Dropped(id int64, at float64, reason Reason) {
	l.record(id, Event{Kind: KindDropped, At: at, Reason: reason})
}

// Samples reports how many distinct sample IDs have events.
func (l *Ledger) Samples() int {
	if l == nil {
		return 0
	}
	return len(l.order)
}

// Events returns a fresh copy of one sample's recorded events (nil if
// unknown).
func (l *Ledger) Events(id int64) []Event {
	if l == nil || !l.tracked(id) {
		return nil
	}
	s, ok := l.slot(id)
	if !ok || s >= len(l.head) {
		return nil
	}
	return l.chain(nil, int32(s))
}

// StageFlow tallies one stage's traffic for the balance check.
type StageFlow struct {
	// In counts batched samples dispatched into the stage.
	In int
	// Completed and Dropped count terminal outcomes attributed to the
	// stage (the sample's last dispatch before terminating).
	Completed int
	Dropped   int
	// Forwarded counts samples dispatched onward to a later stage.
	Forwarded int
}

// maxViolations bounds the report so a systemic bug doesn't balloon memory.
const maxViolations = 64

// Report is the outcome of a conservation audit.
type Report struct {
	// Samples is the number of distinct samples: all detail-tracked
	// samples for an exhaustive ledger, the exact population arrival
	// count for a sampled one.
	Samples int
	// Tracked is the number of samples audited in per-event detail
	// (== Samples for an exhaustive ledger).
	Tracked int
	// Stride is the detail-sampling stride the ledger ran with (1 =
	// exhaustive).
	Stride int64
	// Completed and Dropped count terminal outcomes, exact for the whole
	// population in both modes.
	Completed int
	Dropped   int
	// ByReason breaks Dropped down by classified reason.
	ByReason map[Reason]int
	// Stages maps stage index → in/out tallies.
	Stages map[int]*StageFlow
	// Violations lists human-readable invariant failures (capped).
	Violations []string
	// truncated counts violations beyond the cap.
	truncated int
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 && r.truncated == 0 }

// Err returns nil when OK, else an error summarizing the violations.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	n := len(r.Violations) + r.truncated
	return fmt.Errorf("audit: %d conservation violation(s); first: %s", n, r.Violations[0])
}

func (r *Report) addViolation(format string, args ...any) {
	if len(r.Violations) >= maxViolations {
		r.truncated++
		return
	}
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Violate appends an externally detected invariant violation to the
// report — the hook sibling subsystems (telemetry span reconciliation,
// collector cross-checks) use to fold their findings into the one audit
// verdict the -audit drivers act on.
func (r *Report) Violate(format string, args ...any) {
	r.addViolation(format, args...)
}

// CrossCheck asserts the ledger's terminal totals against an external
// accounting (the collector's Served+Violations and Dropped counters).
func (r *Report) CrossCheck(completed, dropped int) {
	if r.Completed != completed {
		r.addViolation("ledger completed %d, collector served+violated %d", r.Completed, completed)
	}
	if r.Dropped != dropped {
		r.addViolation("ledger dropped %d, collector dropped %d", r.Dropped, dropped)
	}
}

// String renders a one-line summary plus any violations.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d samples, %d completed, %d dropped", r.Samples, r.Completed, r.Dropped)
	if r.Stride > 1 {
		fmt.Fprintf(&b, " [sampled: every %dth of %d audited in detail, totals exact]", r.Stride, r.Tracked)
	}
	if len(r.ByReason) > 0 {
		reasons := make([]string, 0, len(r.ByReason))
		for reason := range r.ByReason {
			reasons = append(reasons, string(reason))
		}
		sort.Strings(reasons)
		parts := make([]string, len(reasons))
		for i, reason := range reasons {
			parts[i] = fmt.Sprintf("%s=%d", reason, r.ByReason[Reason(reason)])
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, " "))
	}
	if r.OK() {
		b.WriteString("; conservation OK")
		return b.String()
	}
	fmt.Fprintf(&b, "; %d violation(s):", len(r.Violations)+r.truncated)
	for _, v := range r.Violations {
		b.WriteString("\n  " + v)
	}
	if r.truncated > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", r.truncated)
	}
	return b.String()
}

func knownReason(reason Reason) bool {
	switch reason {
	case ReasonAdmission, ReasonStaleShed, ReasonSLAFlush:
		return true
	}
	return false
}

// Verify walks every tracked sample and checks the conservation
// invariants, returning a report with per-stage tallies. A nil ledger
// verifies vacuously (an empty, OK report).
func (l *Ledger) Verify() *Report {
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
	r.ByReason = l.DropBreakdown()
	if l.unrecorded > 0 {
		r.addViolation("%d event(s) not recorded: sample id ≤ 0 or past the ledger's index, or more than %d drop reasons",
			l.unrecorded, maxReasons)
	}
	stage := func(si int) *StageFlow {
		f := r.Stages[si]
		if f == nil {
			f = &StageFlow{}
			r.Stages[si] = f
		}
		return f
	}
	var evs []Event // chain-walk buffer, reused across samples
	for _, slot := range l.order {
		id := int64(slot) * l.stride
		evs = l.chain(evs[:0], slot)
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
func (l *Ledger) Totals() (arrived, completed, dropped int) {
	if l == nil {
		return 0, 0, 0
	}
	return l.arrivedTotal, l.completedTotal, l.droppedTotal
}

// DropBreakdown returns drops per classified reason without running a full
// verification (for live stats endpoints). The counts are population-exact
// in both exhaustive and sampled modes (maintained as O(1) counters, so
// this no longer walks the event store).
func (l *Ledger) DropBreakdown() map[Reason]int {
	out := make(map[Reason]int)
	if l == nil {
		return out
	}
	for i, n := range l.byReason {
		if n > 0 {
			out[l.reasons[i]] = n
		}
	}
	return out
}

// Digest renders every tracked sample's event sequence plus the exact
// population totals as a canonical string. Two runs are behaviorally
// identical exactly when their digests are byte-identical — the property
// the pooled-vs-unpooled determinism tests and the simgate check assert.
func (l *Ledger) Digest() string {
	var b strings.Builder
	if l == nil {
		return ""
	}
	fmt.Fprintf(&b, "totals arrived=%d completed=%d dropped=%d", l.arrivedTotal, l.completedTotal, l.droppedTotal)
	if l.unrecorded > 0 {
		fmt.Fprintf(&b, " unrecorded=%d", l.unrecorded)
	}
	byReason := l.DropBreakdown()
	reasons := make([]string, 0, len(byReason))
	for reason := range byReason {
		reasons = append(reasons, string(reason))
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(&b, " %s=%d", reason, byReason[Reason(reason)])
	}
	b.WriteByte('\n')
	var evs []Event // chain-walk buffer, reused across samples
	for _, slot := range l.order {
		fmt.Fprintf(&b, "%d:", int64(slot)*l.stride)
		evs = l.chain(evs[:0], slot)
		for _, e := range evs {
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

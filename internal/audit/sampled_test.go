package audit

import (
	"strings"
	"testing"
)

// drive pushes n samples through a clean arrive→queue→dispatch→terminal
// lifecycle, dropping every 5th.
func drive(l *Ledger, n int64) {
	for id := int64(1); id <= n; id++ {
		at := float64(id)
		l.Arrived(id, at)
		l.Queued(id, at+0.001)
		if id%5 == 0 {
			l.Dropped(id, at+0.002, ReasonAdmission)
			continue
		}
		l.Dispatched(id, at+0.002, 0, int(id%4))
		l.Completed(id, at+0.010, 3)
	}
}

func TestSampledLedgerTotalsExact(t *testing.T) {
	const n = 1000
	l := NewSampledLedger(100)
	drive(l, n)
	r := l.Verify()
	if !r.OK() {
		t.Fatalf("sampled verify failed: %v", r.Violations)
	}
	if r.Samples != n {
		t.Fatalf("Samples = %d, want population-exact %d", r.Samples, n)
	}
	if r.Completed != 800 || r.Dropped != 200 {
		t.Fatalf("totals completed=%d dropped=%d, want 800/200 exact despite sampling", r.Completed, r.Dropped)
	}
	if r.ByReason[ReasonAdmission] != 200 {
		t.Fatalf("ByReason[admission] = %d, want 200", r.ByReason[ReasonAdmission])
	}
	if r.Tracked != 10 {
		t.Fatalf("Tracked = %d, want 10 (every 100th of 1000)", r.Tracked)
	}
	if r.Stride != 100 {
		t.Fatalf("Stride = %d, want 100", r.Stride)
	}
	// CrossCheck against exact collector-side totals must hold in sampled
	// mode — that is the point of keeping O(1) population counters.
	r.CrossCheck(800, 200)
	if !r.OK() {
		t.Fatalf("cross-check failed in sampled mode: %v", r.Violations)
	}
	if !strings.Contains(r.String(), "sampled") {
		t.Fatalf("report does not mention sampling: %s", r.String())
	}
}

func TestSampledLedgerDetectsViolationsOnTrackedSamples(t *testing.T) {
	l := NewSampledLedger(10)
	drive(l, 99)
	// Sample 20 is tracked (20%10==0): give it a second terminal.
	l.Completed(20, 99.0, 1)
	r := l.Verify()
	if r.OK() {
		t.Fatal("double-terminated tracked sample not flagged in sampled mode")
	}
}

func TestSampledLedgerMemoryBoundedByStride(t *testing.T) {
	l := NewSampledLedger(1000)
	drive(l, 10_000)
	if got := len(l.order); got != 10 {
		t.Fatalf("tracked %d samples in detail, want 10", got)
	}
	// The log holds exactly the tracked samples' events and nothing of
	// the other 9,990: every tracked id here is a multiple of 5, so each
	// ran arrive → queue → drop.
	held := 0
	for id := int64(1000); id <= 10_000; id += 1000 {
		held += len(l.Events(id))
	}
	if int(l.n) > held || held != 30 {
		t.Fatalf("log holds %d records, tracked samples have %d events; want both 30", l.n, held)
	}
	if len(l.log) != 1 || len(l.head) > 11 {
		t.Fatalf("store spans %d chunks and %d slots, want 1 chunk and ≤ 11 slots", len(l.log), len(l.head))
	}
}

func TestExhaustiveLedgerUnchangedSemantics(t *testing.T) {
	l := NewLedger()
	drive(l, 50)
	r := l.Verify()
	if !r.OK() {
		t.Fatalf("exhaustive verify failed: %v", r.Violations)
	}
	if r.Samples != 50 || r.Tracked != 50 || r.Stride != 1 {
		t.Fatalf("exhaustive report samples=%d tracked=%d stride=%d, want 50/50/1", r.Samples, r.Tracked, r.Stride)
	}
	if strings.Contains(r.String(), "sampled") {
		t.Fatalf("exhaustive report mentions sampling: %s", r.String())
	}
}

func TestDropBreakdownUsesExactCounters(t *testing.T) {
	l := NewSampledLedger(7)
	drive(l, 700)
	bd := l.DropBreakdown()
	if bd[ReasonAdmission] != 140 {
		t.Fatalf("DropBreakdown[admission] = %d, want exact 140 under sampling", bd[ReasonAdmission])
	}
}

func TestLedgerDigestDeterministic(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	drive(a, 30)
	drive(b, 30)
	if a.Digest() != b.Digest() {
		t.Fatal("identical event streams produced different digests")
	}
	c := NewLedger()
	drive(c, 30)
	c.Completed(31, 31, 1) // extra event must change the digest
	if a.Digest() == c.Digest() {
		t.Fatal("diverging event streams produced identical digests")
	}
	var nilLedger *Ledger
	if nilLedger.Digest() != "" {
		t.Fatal("nil ledger digest not empty")
	}
}

package audit

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// fuzzReasons covers the classified reasons, the empty one and an
// unclassified one, so drops exercise both sides of Verify's reason check.
var fuzzReasons = [...]Reason{ReasonAdmission, ReasonStaleShed, ReasonSLAFlush, "", "bogus"}

// fuzzStrides are the strides the fuzzer picks from: exhaustive, a small
// odd stride, and the paper-scale one.
var fuzzStrides = [...]int64{1, 7, 1000}

// ledgerOp is one decoded recording call.
type ledgerOp struct {
	id                    int64
	kind                  Kind
	at                    float64
	stage, instance, exit int
	reason                Reason
}

// decodeLedgerOps turns fuzz bytes into a stride and a sequence of
// recording calls. Each op takes five bytes: kind and id choice, a signed
// time step (so timestamps can run backwards), a stage/instance pair, an
// exit layer or id offset, and a reason. Ids are k·stride + off for a
// sample counter k that repeats the last id, revisits a recent one, takes
// the next one or skips ahead, with off usually 0 so sampled strides
// still see tracked ids; every id is positive.
func decodeLedgerOps(data []byte) (int64, []ledgerOp) {
	if len(data) == 0 {
		return 1, nil
	}
	stride := fuzzStrides[int(data[0])%len(fuzzStrides)]
	data = data[1:]
	var ops []ledgerOp
	var recent []int64
	k, at := int64(0), 0.0
	for len(data) >= 5 && len(ops) < 1024 {
		b := data[:5]
		data = data[5:]
		var id int64
		switch b[0] / 6 % 4 {
		case 0: // repeat the last id
			if len(recent) > 0 {
				id = recent[len(recent)-1]
				break
			}
			fallthrough
		case 1: // revisit a recent id, interleaving lifecycles
			if len(recent) > 0 {
				id = recent[int(b[3])%len(recent)]
				break
			}
			fallthrough
		case 2: // the next sample
			k++
			id = k*stride + int64(b[3]%4/3)*int64(b[3])%stride
		default: // skip ahead
			k += 1 + int64(b[3])
			id = k * stride
		}
		if len(recent) == 8 {
			recent = recent[1:]
		}
		recent = append(recent, id)
		at += float64(int8(b[1])) / 16
		ops = append(ops, ledgerOp{
			id: id, kind: Kind(b[0] % 6), at: at,
			stage: int(b[2] & 7), instance: int(b[2] >> 3), exit: int(b[3] & 15),
			reason: fuzzReasons[int(b[4])%len(fuzzReasons)],
		})
	}
	return stride, ops
}

// recorder is the recording surface Ledger and refLedger share.
type recorder interface {
	Arrived(id int64, at float64)
	Queued(id int64, at float64)
	Dispatched(id int64, at float64, stage, instance int)
	Merged(id int64, at float64, stage int)
	Completed(id int64, at float64, exitLayer int)
	Dropped(id int64, at float64, reason Reason)
}

func (op ledgerOp) apply(r recorder) {
	switch op.kind {
	case KindArrived:
		r.Arrived(op.id, op.at)
	case KindQueued:
		r.Queued(op.id, op.at)
	case KindDispatched:
		r.Dispatched(op.id, op.at, op.stage, op.instance)
	case KindMerged:
		r.Merged(op.id, op.at, op.stage)
	case KindCompleted:
		r.Completed(op.id, op.at, op.exit)
	case KindDropped:
		r.Dropped(op.id, op.at, op.reason)
	}
}

// FuzzLedgerMatchesReference drives the chunked ledger and the map-backed
// reference with the same calls and requires every read-out to agree
// exactly: the report (and its rendering), the digest, the totals, the
// drop breakdown, the sample count and every id's events.
func FuzzLedgerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 12, 1, 2, 3, 0, 30, 2, 9, 5, 1})
	f.Add([]byte{1, 12, 16, 0, 0, 0, 18, 16, 3, 0, 0, 5, 16, 0, 4, 2, 12, 16, 0, 0, 0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, data []byte) {
		stride, ops := decodeLedgerOps(data)
		got, want := NewSampledLedger(stride), newRefLedger(stride)
		ids := map[int64]bool{}
		for _, op := range ops {
			op.apply(got)
			op.apply(want)
			ids[op.id] = true
			ids[op.id+stride] = true // often never recorded
		}
		gr, wr := got.Verify(), want.Verify()
		if gr.String() != wr.String() {
			t.Fatalf("Verify().String():\n%s\nreference:\n%s", gr, wr)
		}
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("Verify() = %+v, reference %+v", gr, wr)
		}
		if g, w := got.Digest(), want.Digest(); g != w {
			t.Fatalf("Digest():\n%s\nreference:\n%s", g, w)
		}
		ga, gc, gd := got.Totals()
		wa, wc, wd := want.Totals()
		if ga != wa || gc != wc || gd != wd {
			t.Fatalf("Totals() = %d/%d/%d, reference %d/%d/%d", ga, gc, gd, wa, wc, wd)
		}
		if g, w := got.DropBreakdown(), want.DropBreakdown(); !reflect.DeepEqual(g, w) {
			t.Fatalf("DropBreakdown() = %v, reference %v", g, w)
		}
		if g, w := got.Samples(), want.Samples(); g != w {
			t.Fatalf("Samples() = %d, reference %d", g, w)
		}
		for id := range ids {
			if g, w := got.Events(id), want.Events(id); !reflect.DeepEqual(g, w) {
				t.Fatalf("Events(%d) = %v, reference %v", id, g, w)
			}
		}
	})
}

// TestEventsReturnsCopy: callers own what Events returns; writing to it
// must not reach the ledger.
func TestEventsReturnsCopy(t *testing.T) {
	l := NewLedger()
	l.Arrived(1, 0)
	l.Completed(1, 0.5, 3)
	evs := l.Events(1)
	evs[1].ExitLayer = 99
	if got := l.Events(1)[1].ExitLayer; got != 3 {
		t.Fatalf("Events aliases the store: exit layer now %d", got)
	}
}

// TestNonPositiveIDsFailVerify: the dense index has no slot for an id ≤ 0,
// so such events are counted into the population totals, kept out of the
// store, and reported as a violation.
func TestNonPositiveIDsFailVerify(t *testing.T) {
	l := NewLedger()
	l.Arrived(0, 0)
	l.Dropped(-3, 0.1, ReasonAdmission)
	r := l.Verify()
	if r.OK() {
		t.Fatal("non-positive ids passed Verify")
	}
	if want := "2 event(s) not recorded: sample id ≤ 0"; !strings.Contains(r.Violations[0], want) {
		t.Fatalf("violation = %q, want it to contain %q", r.Violations[0], want)
	}
	if a, _, d := l.Totals(); a != 1 || d != 1 {
		t.Fatalf("totals arrived=%d dropped=%d, want 1/1", a, d)
	}
	if l.Samples() != 0 || l.Events(0) != nil || l.Events(-3) != nil {
		t.Fatal("non-positive ids reached the store")
	}
	if !strings.Contains(l.Digest(), "unrecorded=2") {
		t.Fatalf("digest does not count the unrecorded events:\n%s", l.Digest())
	}
}

// TestReasonTableOverflowFailsVerify: a record holds its drop reason as a
// one-byte index, so reasons past the table's 256 entries (four seeded,
// 252 free) cannot be stored; each such drop is counted and reported,
// never mislabelled.
func TestReasonTableOverflowFailsVerify(t *testing.T) {
	l := NewLedger()
	for id := int64(1); id <= 300; id++ {
		l.Arrived(id, 0)
		l.Dropped(id, 1, Reason(fmt.Sprintf("reason-%d", id)))
	}
	r := l.Verify()
	if r.OK() || !strings.Contains(r.Violations[0], "48 event(s) not recorded") {
		t.Fatalf("reason-table overflow not reported: %v", r.Violations[0])
	}
	if got := l.Events(300); len(got) != 1 || got[0].Kind != KindArrived {
		t.Fatalf("overflowing drop reached the store: %v", got)
	}
	if got := l.Events(252); len(got) != 2 || got[1].Reason != "reason-252" {
		t.Fatalf("last drop that fits is %v, want it stored with its own reason", got)
	}
}

// TestRecordAllocsPerEvent holds exhaustive recording to its budget: the
// log allocates one chunk per chunkSize events, and the dense index grows
// by amortized appends, so steady state stays far below 0.01 allocs/event.
func TestRecordAllocsPerEvent(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size != 32 {
		t.Fatalf("rec is %d bytes; the package doc's cost figures assume 32", size)
	}
	const eventsPerSample = 6
	l := NewLedger()
	id := int64(0)
	sample := func() {
		id++
		at := float64(id)
		l.Arrived(id, at)
		l.Queued(id, at)
		l.Dispatched(id, at+0.001, 0, int(id%4))
		l.Merged(id, at+0.002, 1)
		l.Dispatched(id, at+0.003, 1, int(id%4))
		l.Completed(id, at+0.004, 12)
	}
	const batch = 20_000
	samples := func() {
		for i := 0; i < batch; i++ {
			sample()
		}
	}
	samples() // past the small-slice growth regime
	// AllocsPerRun floors to whole allocations per run, so each run records
	// a whole batch of samples.
	perEvent := testing.AllocsPerRun(5, samples) / (batch * eventsPerSample)
	if perEvent > 0.002 {
		t.Fatalf("exhaustive record: %.5f allocs/event, want ≤ 0.002", perEvent)
	}
	t.Logf("exhaustive record: %.5f allocs/event", perEvent)
}

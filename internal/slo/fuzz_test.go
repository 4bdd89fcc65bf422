package slo

import (
	"math/rand"
	"reflect"
	"testing"

	"e3/internal/audit"
	"e3/internal/workload"
)

// fuzzStrides are the strides the fuzzer picks from: exhaustive, a small
// odd stride, and the paper-scale one.
var fuzzStrides = [...]int64{1, 7, 1000}

// attrOp kinds: the six boundary events the collector forwards.
const (
	opQueued = iota
	opDispatched
	opExecuted
	opMerged
	opCompleted
	opDropped
	numAttrOps
)

// attrOp is one decoded boundary call.
type attrOp struct {
	kind  int
	at    float64
	stage int
	// end is the batch-compute end of an Executed op.
	end float64
	// batch holds the op's sample (one) or an Executed op's batch.
	batch []workload.Sample
}

// decodeAttrOps turns fuzz bytes into a stride, a top-K bound and a
// sequence of boundary calls. The header byte picks the stride and the
// top-K bound (1–4, so eviction runs often). Each op takes five bytes:
// kind and id choice, a signed time step (so timestamps can run backwards
// and breakdowns fail their checks), a stage and batch size, an id choice
// operand, and an execution length. Ids are k·stride + off for a sample
// counter k that repeats the last id, revisits a recent id or one of the
// last 128 samples, takes the next one or skips ahead, possibly to an id
// ≤ 0; off is usually 0 so sampled strides still see tracked ids. A sample keeps the arrival time
// of its first op, and an Executed batch is the op's id plus the most
// recent others.
func decodeAttrOps(data []byte) (int64, int, []attrOp) {
	if len(data) == 0 {
		return 1, 1, nil
	}
	stride := fuzzStrides[int(data[0])%len(fuzzStrides)]
	topK := 1 + int(data[0])/len(fuzzStrides)%4
	data = data[1:]
	var ops []attrOp
	var recent []int64
	arrival := map[int64]float64{}
	k, at := int64(0), 0.0
	for len(data) >= 5 && len(ops) < 1024 {
		b := data[:5]
		data = data[5:]
		var id int64
		switch b[0] / numAttrOps % 4 {
		case 0: // repeat the last id
			if len(recent) > 0 {
				id = recent[len(recent)-1]
				break
			}
			fallthrough
		case 1: // revisit a recent id or an earlier sample, interleaving lifecycles
			if b[3]&1 != 0 {
				id = (k - int64(b[3]>>1)) * stride
				break
			}
			if len(recent) > 0 {
				id = recent[int(b[3]>>1)%len(recent)]
				break
			}
			fallthrough
		case 2: // the next sample
			k++
			id = k*stride + int64(b[3]%4/3)*int64(b[3])%stride
		default: // skip ahead, to an id ≤ 0 when b[3] has bit 4 set
			k += 1 + int64(b[3]%16)
			id = k * stride
			if b[3]&0x10 != 0 {
				id = (1 - k) * stride
			}
		}
		at += float64(int8(b[1])) / 16
		if _, seen := arrival[id]; !seen {
			arrival[id] = at
		}
		if len(recent) == 32 {
			recent = recent[1:]
		}
		recent = append(recent, id)
		op := attrOp{kind: int(b[0]) % numAttrOps, at: at, stage: int(b[2] & 7), end: at + float64(b[4])/64}
		n := 1
		if op.kind == opExecuted {
			n = 1 + int(b[2]>>5)
		}
		for i := len(recent) - 1; i >= 0 && len(op.batch) < n; i-- {
			id := recent[i]
			op.batch = append(op.batch, workload.Sample{ID: id, Arrival: arrival[id], Deadline: arrival[id] + 1})
		}
		ops = append(ops, op)
	}
	return stride, topK, ops
}

// attrRecorder is the recording surface Attribution and refAttribution
// share.
type attrRecorder interface {
	Queued(s workload.Sample, at float64)
	Dispatched(s workload.Sample, at float64, stage int)
	Executed(stage int, batch []workload.Sample, start, end float64)
	Merged(s workload.Sample, at float64, stage int)
	Completed(s workload.Sample, at float64)
	Dropped(s workload.Sample, at float64)
}

func (op attrOp) apply(r attrRecorder) {
	s := op.batch[0]
	switch op.kind {
	case opQueued:
		r.Queued(s, op.at)
	case opDispatched:
		r.Dispatched(s, op.at, op.stage)
	case opExecuted:
		r.Executed(op.stage, op.batch, op.at, op.end)
	case opMerged:
		r.Merged(s, op.at, op.stage)
	case opCompleted:
		r.Completed(s, op.at)
	case opDropped:
		r.Dropped(s, op.at)
	}
}

// FuzzAttributionMatchesReference drives the dense-slot attribution and
// the map-backed reference with the same calls and requires every
// read-out to agree exactly: the dump (aggregates, per-stage compute,
// mismatches, residual and retained breakdowns), Slowest, Counts, Open,
// and what Reconcile reports against a matching and a disagreeing ledger.
func FuzzAttributionMatchesReference(f *testing.F) {
	f.Add([]byte{0, 12, 16, 0, 0, 0, 13, 16, 1, 0, 40, 14, 16, 2, 0, 40, 16, 16, 0, 0, 0})
	f.Add([]byte{1, 12, 16, 0, 0, 0, 19, 16, 3, 0, 0, 2, 16, 32, 0, 200, 4, 16, 0, 4, 2})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, data []byte) {
		stride, topK, ops := decodeAttrOps(data)
		got, want := NewAttribution(topK), newRefAttribution(topK)
		got.SetStride(stride)
		want.SetStride(stride)
		for _, op := range ops {
			op.apply(got)
			op.apply(want)
		}
		if g, w := got.Dump(), want.Dump(); !reflect.DeepEqual(g, w) {
			t.Fatalf("Dump() = %+v\nreference %+v", g, w)
		}
		if g, w := got.Slowest(), want.Slowest(); !reflect.DeepEqual(g, w) {
			t.Fatalf("Slowest() = %+v\nreference %+v", g, w)
		}
		gc, gd, ga := got.Counts()
		wc, wd, wa := want.Counts()
		if gc != wc || gd != wd || ga != wa {
			t.Fatalf("Counts() = %d/%d/%d, reference %d/%d/%d", gc, gd, ga, wc, wd, wa)
		}
		if g, w := got.Open(), want.Open(); g != w {
			t.Fatalf("Open() = %d, reference %d", g, w)
		}
		for _, off := range []int{0, 1} {
			gr := &audit.Report{Completed: int(wc) + off, Dropped: int(wd)}
			wr := &audit.Report{Completed: int(wc) + off, Dropped: int(wd)}
			got.Reconcile(gr)
			want.Reconcile(wr)
			if !reflect.DeepEqual(gr, wr) {
				t.Fatalf("Reconcile(completed%+d) = %v, reference %v", off, gr.Violations, wr.Violations)
			}
		}
	})
}

// TestSlotIndexMatchesMap runs the id→slot table against a Go map through
// enough opens and closes to grow it several times and to shift long
// probe runs back on delete, with strided and negative ids.
func TestSlotIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x slotIndex
	ref := map[int64]int32{}
	var live []int64
	for i := 0; i < 200000; i++ {
		if len(live) > 0 && rng.Intn(100) < 48 {
			j := rng.Intn(len(live))
			id := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			slot, ok := x.remove(id)
			if !ok || slot != ref[id] {
				t.Fatalf("op %d: remove(%d) = %d, %v; want %d", i, id, slot, ok, ref[id])
			}
			delete(ref, id)
		} else {
			id := int64(rng.Intn(1<<20)-1<<19) * []int64{1, 7, 1000}[rng.Intn(3)]
			if _, dup := ref[id]; dup {
				continue
			}
			slot := int32(rng.Intn(1 << 30))
			x.put(id, slot)
			ref[id] = slot
			live = append(live, id)
		}
		if x.n != len(ref) {
			t.Fatalf("op %d: %d entries, want %d", i, x.n, len(ref))
		}
		if i%997 == 0 {
			for id, want := range ref {
				if got, ok := x.get(id); !ok || got != want {
					t.Fatalf("op %d: get(%d) = %d, %v; want %d", i, id, got, ok, want)
				}
			}
			if _, ok := x.get(1<<40 + 1); ok {
				t.Fatalf("op %d: found an id never put", i)
			}
		}
	}
}

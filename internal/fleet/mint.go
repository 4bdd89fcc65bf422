package fleet

import (
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// rec is one minted arrival in 16 bytes. The rest of its Sample is
// rebuilt on injection: the ID from its buffer index, the deadline from
// the tenant's SLO.
type rec struct {
	at, difficulty float64
}

// epochBuf holds one tenant's arrivals in (start, end] of one epoch, in
// stream order; the arrival at index i has ID first+i.
type epochBuf struct {
	// epoch is the epoch minted into the buffer, -1 when none is.
	epoch int
	first int64
	recs  []rec
	// kept is set while a detached run (see beginRun) still reads recs;
	// the next mint then leaves that storage to it.
	kept bool
}

// source is one tenant's fleet-wide arrival stream and difficulty
// generator, with two epoch buffers: the router and the shards read one
// epoch's buffer while the next epoch is minted into the other.
type source struct {
	stream *trace.PoissonStream
	gen    *workload.Generator
	// next is the first arrival not yet minted; ok is false once the
	// stream is exhausted.
	next float64
	ok   bool
	bufs [2]epochBuf
}

func newSource(stream *trace.PoissonStream, gen *workload.Generator) *source {
	s := &source{stream: stream, gen: gen}
	s.release()
	s.next, s.ok = stream.Next()
	return s
}

// minted returns the epoch's buffer, minting it now unless it was minted
// ahead.
func (s *source) minted(epoch int, end float64) *epochBuf {
	b := &s.bufs[epoch&1]
	if b.epoch != epoch {
		s.mint(epoch, end)
	}
	return b
}

// mint draws every remaining arrival at or before end into the epoch's
// buffer, in stream order, so IDs and difficulty draws do not depend on
// routing. It touches only this source, which is what lets Run mint the
// next epoch on the shard pool while the shards advance: the shards read
// only the other buffer.
func (s *source) mint(epoch int, end float64) {
	b := &s.bufs[epoch&1]
	if b.kept {
		b.recs, b.kept = nil, false
	}
	b.epoch = epoch
	b.recs = b.recs[:0]
	for s.ok && s.next <= end {
		// The deadline is rebuilt on injection, so no SLO is needed here.
		smp := s.gen.Next(s.next, 0)
		if len(b.recs) == 0 {
			b.first = smp.ID
		}
		b.recs = append(b.recs, rec{at: smp.Arrival, difficulty: smp.Difficulty})
		s.next, s.ok = s.stream.Next()
	}
}

// release drops both buffers' storage.
func (s *source) release() {
	s.bufs = [2]epochBuf{{epoch: -1}, {epoch: -1}}
}

// arrivalRun is one (replica, tenant) stack's share of an epoch: indices
// into the tenant's epoch buffer, in arrival order. The router refills it
// between barriers; while the shard advances, one self-rescheduling event
// walks it (one live event per stream, as in serving.RunOpenLoopStream).
type arrivalRun struct {
	buf  *epochBuf
	idx  []int32
	next int
	step func()
}

// newArrivalRun builds a run injecting into stack rt on eng. The step
// event is built once and reused every epoch.
func newArrivalRun(eng *sim.Engine, rt *replicaTenant) *arrivalRun {
	ru := &arrivalRun{}
	slo := rt.st.Spec.SLO
	ru.step = func() {
		i := ru.idx[ru.next]
		rc := ru.buf.recs[i]
		id := ru.buf.first + int64(i)
		// The destination ledger records the arrival at its virtual time,
		// then the batcher admits or sheds it. Deadline is computed as
		// Generator.Next computes it, so the floats are identical.
		rt.st.Coll.Audit.Arrived(id, eng.Now())
		rt.st.Batcher.Arrive(workload.Sample{ID: id, Difficulty: rc.difficulty, Arrival: rc.at, Deadline: rc.at + slo})
		ru.next++
		if ru.next < len(ru.idx) {
			eng.At(ru.buf.recs[ru.idx[ru.next]].at, ru.step)
		}
	}
	return ru
}

// beginRun empties the stack's run and points it at epoch buffer b. If
// the previous run is not yet consumed (the replica was not advanced past
// the last epoch), its pending event keeps it, reading its arrivals'
// storage through a buffer of its own that no mint reuses, and the stack
// continues on a fresh run.
func (r *Replica) beginRun(ti int, b *epochBuf) *arrivalRun {
	rt := r.tenants[ti]
	if ru := rt.run; ru.next < len(ru.idx) {
		old := ru.buf
		old.kept = true
		ru.buf = &epochBuf{epoch: old.epoch, first: old.first, recs: old.recs}
		rt.run = newArrivalRun(r.eng, rt)
	}
	ru := rt.run
	ru.buf, ru.idx, ru.next = b, ru.idx[:0], 0
	return ru
}

// inject schedules the stack's routed share of this epoch into the
// shard's event loop. Called by the coordinator at an epoch boundary,
// before the shard advances; the run is sorted by arrival time because
// routing preserves stream order.
func (r *Replica) inject(ti int) {
	rt := r.tenants[ti]
	ru := rt.run
	if len(ru.idx) == 0 {
		return
	}
	rt.routed += len(ru.idx)
	r.eng.At(ru.buf.recs[ru.idx[0]].at, ru.step)
}

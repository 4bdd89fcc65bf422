package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"e3/internal/audit"
	"e3/internal/ee"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// layer is one span kind the traced pass records around a call into the
// program. Spans nest: run ⊃ sim.step ⊃ {workload.next, serving.arrive ⊃
// scheduler.ingest, trace.next}.
type layer int

const (
	spanRun layer = iota
	spanStep
	spanWorkloadNext
	spanArrive
	spanIngest
	spanTraceNext
	numSpans
)

var spanNames = [numSpans]string{"run", "sim.step", "workload.next", "serving.arrive", "scheduler.ingest", "trace.next"}

// spans accumulates the benchmark's own timing spans. Every span adds its
// duration to its layer's total and to its parent's child time, so a
// layer's self time is total − child. Per-call spans number in the
// millions, so they are folded as they close rather than kept. A nil
// *spans records nothing.
type spans struct {
	origin time.Time
	total  [numSpans]time.Duration
	child  [numSpans]time.Duration
	calls  [numSpans]int64
	stack  []openSpan
	// depthSum/depthN sample the engine's pending-event count, the heap
	// depth the churn replay runs at.
	depthSum, depthN int64
}

type openSpan struct {
	l  layer
	t0 time.Duration
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// now reads the monotonic clock only (time.Since skips the wall clock).
func (s *spans) now() time.Duration { return time.Since(s.origin) }

func (s *spans) begin(l layer) {
	if s == nil {
		return
	}
	s.stack = append(s.stack, openSpan{l, s.now()})
}

func (s *spans) end() {
	if s == nil {
		return
	}
	n := len(s.stack) - 1
	o := s.stack[n]
	s.stack = s.stack[:n]
	d := s.now() - o.t0
	s.total[o.l] += d
	s.calls[o.l]++
	if n > 0 {
		s.child[s.stack[n-1].l] += d
	}
}

func (s *spans) self(l layer) time.Duration { return s.total[l] - s.child[l] }

// add folds another pass's spans into s.
func (s *spans) add(o *spans) {
	for l := range s.total {
		s.total[l] += o.total[l]
		s.child[l] += o.child[l]
		s.calls[l] += o.calls[l]
	}
	s.depthSum += o.depthSum
	s.depthN += o.depthN
}

// lane is one tenant's arrival stream feeding one batcher and pipeline on
// the stack's engine.
type lane struct {
	stream *trace.PoissonStream
	gen    *workload.Generator
	dist   workload.Dist
	slo    float64
	batch  int
	model  *ee.EEModel
	plan   optimizer.Plan
	pipe   *scheduler.Pipeline
	// ingested and ingests count what the traced runner wrapper saw.
	ingested, ingests int64
}

// stack is a serving data plane the benchmark drives itself: one engine
// with one lane per tenant, optionally sharing a batch pool.
type stack struct {
	eng   *sim.Engine
	pool  *workload.BatchPool
	lanes []*lane
	// finish, when set, runs on each lane's audit report before it is
	// judged: observers close and reconcile into the report here.
	finish func(rep *audit.Report) error
}

// tracedRunner wraps a pipeline to time Ingest and count the samples per
// call. It has exactly the scheduler.Runner methods, which is all the
// batcher asks of a pipeline.
type tracedRunner struct {
	sp *spans
	l  *lane
}

func (r *tracedRunner) Ingest(batch []workload.Sample) {
	r.l.ingests++
	r.l.ingested += int64(len(batch))
	r.sp.begin(spanIngest)
	r.l.pipe.Ingest(batch)
	r.sp.end()
}

func (r *tracedRunner) Collector() *scheduler.Collector { return r.l.pipe.Collector() }

// drive runs every lane's stream to the horizon and drains the stack. A
// single lane without spans goes through the program's own stream loop,
// serving.RunOpenLoopStream; otherwise the benchmark's copy of that loop
// runs, with spans around each call into a layer when sp is non-nil.
// Equal ledger digests between the two are what show the copy and its
// spans leave the simulation unchanged.
func (s *stack) drive(sp *spans) error {
	if sp == nil && len(s.lanes) == 1 {
		l := s.lanes[0]
		_, err := serving.RunOpenLoopStream(s.eng, l.pipe, s.batcher(l, l.pipe), l.stream, l.gen, l.slo)
		return err
	}
	sp.begin(spanRun)
	defer sp.end()
	batchers := make([]*serving.Batcher, len(s.lanes))
	for i, l := range s.lanes {
		var r scheduler.Runner = l.pipe
		if sp != nil {
			r = &tracedRunner{sp: sp, l: l}
		}
		b := s.batcher(l, r)
		batchers[i] = b
		var step func()
		step = func() {
			sp.begin(spanWorkloadNext)
			smp := l.gen.Next(s.eng.Now(), l.slo)
			sp.end()
			sp.begin(spanArrive)
			b.Arrive(smp)
			sp.end()
			sp.begin(spanTraceNext)
			at, ok := l.stream.Next()
			sp.end()
			if ok {
				s.eng.At(at, step)
			}
		}
		if at, ok := l.stream.Next(); ok {
			s.eng.At(at, step)
		}
	}
	if err := s.runAll(sp); err != nil {
		return err
	}
	for _, b := range batchers {
		b.Flush()
	}
	for _, l := range s.lanes {
		l.pipe.FlushAll()
	}
	if err := s.runAll(sp); err != nil {
		return err
	}
	for _, l := range s.lanes {
		l.pipe.Collector().Good.CloseAt(s.eng.Now())
	}
	return nil
}

func (s *stack) batcher(l *lane, r scheduler.Runner) *serving.Batcher {
	b := serving.NewBatcher(s.eng, r, l.batch, l.plan.Latency, slack)
	b.SetPool(s.pool)
	return b
}

// runAll is Engine.RunAll with a span around every Step and the pending
// depth sampled every 64th event.
func (s *stack) runAll(sp *spans) error {
	limit := s.eng.EventLimit()
	for s.eng.Pending() > 0 {
		if limit > 0 && s.eng.Processed() >= limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", limit, s.eng.Now())
		}
		if sp != nil && s.eng.Processed()%64 == 0 {
			sp.depthSum += int64(s.eng.Pending())
			sp.depthN++
		}
		sp.begin(spanStep)
		s.eng.Step()
		sp.end()
	}
	return nil
}

// audit verifies every lane's ledger, lets the stack's observers reconcile
// into the report, and returns the first violation along with the time
// the Collector.AuditReport calls took.
func (s *stack) audit() (time.Duration, error) {
	var took time.Duration
	for i, l := range s.lanes {
		t0 := time.Now()
		rep := l.pipe.Collector().AuditReport()
		took += time.Since(t0)
		if s.finish != nil {
			if err := s.finish(rep); err != nil {
				return took, fmt.Errorf("lane %d: %w", i, err)
			}
		}
		if !rep.OK() {
			return took, fmt.Errorf("lane %d: %w", i, rep.Err())
		}
	}
	return took, nil
}

// digest hashes every lane's ledger digest, in lane order.
func (s *stack) digest() string {
	h := sha256.New()
	for _, l := range s.lanes {
		fmt.Fprintf(h, "%s\n", l.pipe.Collector().Audit.Digest())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// arrivals counts the requests the stack's ledgers saw arrive.
func (s *stack) arrivals() int {
	n := 0
	for _, l := range s.lanes {
		a, _, _ := l.pipe.Collector().Audit.Totals()
		n += a
	}
	return n
}

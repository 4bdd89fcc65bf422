package slo

import (
	"fmt"
	"math"
	"sort"

	"e3/internal/audit"
	"e3/internal/workload"
)

// refAttribution is the map-backed attribution the dense-slot store is
// checked against (see FuzzAttributionMatchesReference): one heap-allocated
// state per open request, keyed by id, and per-stage compute totals in
// maps. It is the straightforward reading of the attribution rules, kept
// only as a test oracle.
type refAttribution struct {
	topK   int
	stride int64

	open map[int64]*refState

	completed, dropped, attributed uint64

	mismatches  int
	errs        []string
	maxResidual float64

	compTotal      [NumComponents]float64
	compCount      [NumComponents]uint64
	computeByStage map[int]float64
	computeCount   map[int]uint64

	slowest []Breakdown
}

type refState struct {
	id                int64
	arrival, prevAt   float64
	execEnd           float64
	haveExec, started bool
	stage             int
	parts             []Part
}

func newRefAttribution(topK int) *refAttribution {
	if topK <= 0 {
		topK = DefaultTopK
	}
	return &refAttribution{
		topK: topK, stride: 1,
		open:           make(map[int64]*refState),
		computeByStage: make(map[int]float64),
		computeCount:   make(map[int]uint64),
	}
}

func (a *refAttribution) SetStride(n int64) {
	if n > 1 {
		a.stride = n
	} else {
		a.stride = 1
	}
}

func (a *refAttribution) trackedID(id int64) bool { return a.stride <= 1 || id%a.stride == 0 }

func (a *refAttribution) state(s workload.Sample) *refState {
	if st := a.open[s.ID]; st != nil {
		return st
	}
	st := &refState{id: s.ID, arrival: s.Arrival, prevAt: s.Arrival, stage: -1}
	a.open[s.ID] = st
	return st
}

func (a *refAttribution) part(st *refState, c Component, stage int, end float64) {
	if end <= st.prevAt {
		return
	}
	st.parts = append(st.parts, Part{Comp: c, Stage: stage, Start: st.prevAt, End: end})
	st.prevAt = end
}

func (a *refAttribution) resolve(st *refState, at float64, gap Component, gapStage int) {
	if st.haveExec {
		end := st.execEnd
		if at < end {
			end = at
		}
		a.part(st, CompCompute, st.stage, end)
		st.haveExec = false
	}
	a.part(st, gap, gapStage, at)
}

func (a *refAttribution) Queued(s workload.Sample, at float64) {
	if a.trackedID(s.ID) {
		a.state(s)
	}
}

func (a *refAttribution) Dispatched(s workload.Sample, at float64, stage int) {
	if !a.trackedID(s.ID) {
		return
	}
	st := a.state(s)
	if st.started {
		a.resolve(st, at, CompFuse, stage)
	} else {
		a.resolve(st, at, CompQueueWait, -1)
	}
}

func (a *refAttribution) Executed(stage int, batch []workload.Sample, start, end float64) {
	for i := range batch {
		st := a.open[batch[i].ID]
		if st == nil {
			continue
		}
		a.resolve(st, start, CompBacklog, stage)
		st.haveExec, st.started = true, true
		st.stage = stage
		st.execEnd = end
	}
}

func (a *refAttribution) Merged(s workload.Sample, at float64, stage int) {
	if st := a.open[s.ID]; st != nil {
		a.resolve(st, at, CompTransfer, st.stage)
	}
}

func (a *refAttribution) Completed(s workload.Sample, at float64) {
	a.completed++
	st := a.open[s.ID]
	if st == nil {
		if a.trackedID(s.ID) {
			a.flag("request %d: completed with no open attribution record", s.ID)
		}
		return
	}
	a.resolve(st, at, CompCollector, st.stage)
	a.finalize(st, at)
}

func (a *refAttribution) Dropped(s workload.Sample, at float64) {
	a.dropped++
	delete(a.open, s.ID)
}

func (a *refAttribution) flag(format string, args ...any) {
	a.mismatches++
	if len(a.errs) < maxAttrErrs {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

func (a *refAttribution) finalize(st *refState, at float64) {
	delete(a.open, st.id)
	e2e := at - st.arrival
	sum, prev, ok := 0.0, st.arrival, true
	for _, p := range st.parts {
		if p.Start != prev || p.End < p.Start {
			ok = false
		}
		prev = p.End
		sum += p.End - p.Start
	}
	if prev != at && len(st.parts) > 0 {
		ok = false
	}
	residual := math.Abs(sum - e2e)
	if residual > SumTolerance {
		ok = false
	}
	if residual > a.maxResidual {
		a.maxResidual = residual
	}
	if !ok {
		a.flag("request %d: breakdown does not partition [%v, %v]: %d part(s) summing to %v (end-to-end %v)",
			st.id, st.arrival, at, len(st.parts), sum, e2e)
		return
	}
	for _, p := range st.parts {
		d := p.End - p.Start
		a.compTotal[p.Comp] += d
		a.compCount[p.Comp]++
		if p.Comp == CompCompute {
			a.computeByStage[p.Stage] += d
			a.computeCount[p.Stage]++
		}
	}
	a.attributed++
	bd := Breakdown{ID: st.id, Arrival: st.arrival, Completion: at, Parts: st.parts}
	if len(a.slowest) >= a.topK && !slowestLess(a.slowest[0], bd) {
		return
	}
	i := sort.Search(len(a.slowest), func(i int) bool { return !slowestLess(a.slowest[i], bd) })
	a.slowest = append(a.slowest[:i], append([]Breakdown{bd}, a.slowest[i:]...)...)
	if len(a.slowest) > a.topK {
		a.slowest = a.slowest[1:]
	}
}

func (a *refAttribution) Counts() (completed, dropped, attributed uint64) {
	return a.completed, a.dropped, a.attributed
}

func (a *refAttribution) Open() int { return len(a.open) }

func (a *refAttribution) Slowest() []Breakdown {
	out := make([]Breakdown, len(a.slowest))
	for i := range a.slowest {
		out[len(a.slowest)-1-i] = a.slowest[i]
	}
	return out
}

func (a *refAttribution) Reconcile(rep *audit.Report) {
	for _, msg := range a.errs {
		rep.Violate("slo: %s", msg)
	}
	if extra := a.mismatches - len(a.errs); extra > 0 {
		rep.Violate("slo: ... and %d more attribution mismatch(es)", extra)
	}
	if len(a.open) > 0 {
		rep.Violate("slo: %d request(s) still open after end of run", len(a.open))
	}
	if int(a.completed) != rep.Completed {
		rep.Violate("slo: %d completion events, ledger completed %d", a.completed, rep.Completed)
	}
	if int(a.dropped) != rep.Dropped {
		rep.Violate("slo: %d drop events, ledger dropped %d", a.dropped, rep.Dropped)
	}
	if a.stride <= 1 && a.mismatches == 0 {
		if want := a.completed - a.attributed; want != 0 {
			rep.Violate("slo: %d completion(s) not attributed in exhaustive mode", want)
		}
	}
}

func (a *refAttribution) Dump() *Dump {
	d := &Dump{Completed: a.completed, Dropped: a.dropped, Attributed: a.attributed,
		Mismatches: a.mismatches, MaxResidual: a.maxResidual}
	for c := Component(0); c < NumComponents; c++ {
		d.Components = append(d.Components, ComponentAgg{
			Component: c.String(), Count: a.compCount[c], TotalS: a.compTotal[c],
		})
	}
	stages := make([]int, 0, len(a.computeByStage))
	for s := range a.computeByStage {
		stages = append(stages, s)
	}
	sort.Ints(stages)
	for _, s := range stages {
		d.ComputeByStage = append(d.ComputeByStage, StageCompute{
			Stage: s, Count: a.computeCount[s], TotalS: a.computeByStage[s],
		})
	}
	d.Slowest = a.Slowest()
	return d
}

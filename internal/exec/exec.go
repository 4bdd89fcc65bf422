// Package exec runs batches of samples through contiguous layer segments
// of an (early-exit) model on a simulated GPU. It is the shared execution
// substrate: the vanilla and naive-EE baselines run the whole model as one
// segment; E3's scheduler runs each split as a segment and merges the
// survivors.
//
// Time accounting per layer k with a currently-active batch b:
//
//	layer compute   spec.LayerTime(flops_k, b)
//	ramp check      spec.LayerTime(rampFLOPs, b) + 2·launch   (if enabled)
//	batch reform    ReformOverhead                            (if exits occurred)
//
// Samples that exit at a ramp complete at that instant; if the active batch
// drains to zero the remaining layers are skipped entirely (the batch-1
// win of EE models).
package exec

import (
	"fmt"

	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/workload"
)

// Overhead constants, calibrated to DeeBERT-style PyTorch serving.
const (
	// SyncBase is the fixed cost of one exit check's device-host
	// synchronization: the GPU pipeline drains while logits cross PCIe and
	// the host evaluates the exit criterion. Single-sample streams skip it
	// (no batch bookkeeping; frameworks fuse the check into decode).
	SyncBase = 500e-6
	// SyncPerSample is the host-side per-sample share of an exit check
	// (entropy evaluation, index bookkeeping in framework-speed host code).
	SyncPerSample = 60e-6
	// ReformOverhead is the fixed host-side cost of compacting a batch
	// after some samples exited (gather launch + bookkeeping).
	ReformOverhead = 150e-6
	// ReformPerSample is the per-survivor activation gather cost.
	ReformPerSample = 20e-6
)

// rampCheckTime is the full cost of evaluating one ramp over an active
// batch in eager mode: the ramp head kernels plus the synchronization
// stall. Batch 1 skips the stall — a single-sample stream needs no batch
// bookkeeping.
func rampCheckTime(spec gpu.Spec, rampFLOPs float64, active int) float64 {
	t := spec.LayerTime(rampFLOPs, active) + 2*spec.LaunchOverhead
	if active > 1 {
		t += SyncBase + float64(active)*SyncPerSample
	}
	return t
}

// rampCheckTimeFrac mirrors rampCheckTime for fractional expected batches.
func rampCheckTimeFrac(spec gpu.Spec, rampFLOPs, active float64) float64 {
	t := spec.LayerTimeFrac(rampFLOPs, 0, active) + 2*spec.LaunchOverhead
	if active > 1 {
		t += SyncBase + active*SyncPerSample
	}
	return t
}

// Completion records one sample finishing, Offset seconds after the
// segment started.
type Completion struct {
	Sample workload.Sample
	Offset float64
	// ExitLayer is the 1-based layer after which the sample left.
	ExitLayer int
}

// Result summarizes one segment execution.
type Result struct {
	// Duration is the total busy time of the device for this batch.
	Duration float64
	// HandoffDelay is host-side work (boundary sync, batch reform) that
	// happens after the device frees: E3's pipelining overlaps it with the
	// next batch, so it delays survivors and completions but not the
	// device (RunSplit only; zero for eager segments).
	HandoffDelay float64
	// Completions lists samples that finished inside this segment.
	Completions []Completion
	// Survivors continue to the next segment (empty if the segment ends
	// at the final layer).
	Survivors []workload.Sample
	// UsefulFLOPs is the model compute performed (excludes ramp checks),
	// for utilization accounting.
	UsefulFLOPs float64
	// RampTime is the share of Duration spent on early-exit machinery:
	// ramp-head kernels, exit-check synchronization, batch reforms.
	RampTime float64
	// PadTime is the share of Duration attributable to samples riding a
	// compiled split past their exit layer (E3's padding waste): each
	// layer's compute is charged pro rata to the samples whose exit point
	// already passed. It is a counterfactual attribution — Duration itself
	// is unchanged by it.
	PadTime float64

	// padHist is reusable scratch for the pad attribution: exit counts per
	// layer offset within the split (see RunSplitInto).
	padHist []int
}

// RunSegment executes layers [from, to] (1-based, inclusive) of m over the
// batch on the given GPU spec, with a straggler slowdown factor (1 =
// healthy). It panics on malformed segment bounds — those are planner bugs.
func RunSegment(m *ee.EEModel, from, to int, batch []workload.Sample, spec gpu.Spec, slowdown float64) Result {
	L := m.Base.NumLayers()
	if from < 1 || to > L || from > to {
		panic(fmt.Sprintf("exec: bad segment [%d,%d] for %d-layer model", from, to, L))
	}
	if slowdown < 1 {
		slowdown = 1
	}

	var res Result
	if len(batch) == 0 {
		return res
	}

	// Partition samples by exit layer once.
	exitAt := make([]int, len(batch))
	for i, s := range batch {
		exitAt[i] = m.ExitLayerFor(s.Difficulty)
		if exitAt[i] < from {
			// Defensive: a sample routed past its exit point completes
			// immediately (upstream should have removed it).
			res.Completions = append(res.Completions, Completion{Sample: s, Offset: 0, ExitLayer: exitAt[i]})
			exitAt[i] = -1
		}
	}

	t := 0.0
	active := 0
	for _, e := range exitAt {
		if e >= from {
			active++
		}
	}
	rampFLOPs := m.RampFLOPs()

	for k := from; k <= to && active > 0; k++ {
		layer := m.Base.Layers[k-1]
		t += spec.LayerTimeW(layer.FLOPs, layer.WeightBytes, active) * slowdown
		res.UsefulFLOPs += layer.FLOPs * float64(active)

		checkHere := m.HasRampAfter(k) || k == L
		if !checkHere {
			continue
		}
		t += rampCheckTime(spec, rampFLOPs, active) * slowdown
		res.RampTime += rampCheckTime(spec, rampFLOPs, active) * slowdown

		exited := 0
		for i, e := range exitAt {
			if e == k || (k == L && e >= from) {
				res.Completions = append(res.Completions, Completion{Sample: batch[i], Offset: t, ExitLayer: e})
				exitAt[i] = -1
				exited++
			}
		}
		active -= exited
		if exited > 0 && active > 0 && k < to {
			t += (ReformOverhead + float64(active)*ReformPerSample) * slowdown
			res.RampTime += (ReformOverhead + float64(active)*ReformPerSample) * slowdown
		}
	}

	if to < L {
		for i, e := range exitAt {
			if e >= from {
				res.Survivors = append(res.Survivors, batch[i])
				_ = e
			}
		}
	}
	res.Duration = t
	return res
}

// RunSplit executes layers [from, to] the way E3 runs a split: as one
// compiled graph over a *constant* batch. Ramp heads inside the split run
// inline as cheap GPU kernels (no host sync); exit decisions are applied
// once, at the split boundary, where a single sync and batch reform
// happens. Samples whose exit ramp lies inside the split therefore ride
// along to the boundary — E3's compute saving comes from not forwarding
// them to the next split, not from shrinking mid-split.
func RunSplit(m *ee.EEModel, from, to int, batch []workload.Sample, spec gpu.Spec, slowdown float64) Result {
	var res Result
	RunSplitInto(m, from, to, batch, spec, slowdown, &res)
	return res
}

// RunSplitInto is RunSplit writing into a caller-owned Result whose
// Completions/Survivors backing arrays are reused across calls — the hot
// path runs one split per dispatched batch, so recycling the two slices
// removes the dominant steady-state allocation. Scalar fields are reset
// and the slices truncated to length zero (capacity kept); the caller must
// treat any previous contents of res as dead. res also carries the pad
// attribution's scratch, so a caller that builds a fresh Result per call
// allocates it on every call.
//
//e3:hotpath runs one split per dispatched batch; recycled Result slices are the point
func RunSplitInto(m *ee.EEModel, from, to int, batch []workload.Sample, spec gpu.Spec, slowdown float64, res *Result) {
	L := m.Base.NumLayers()
	if from < 1 || to > L || from > to {
		panic(fmt.Sprintf("exec: bad split [%d,%d] for %d-layer model", from, to, L))
	}
	if slowdown < 1 {
		slowdown = 1
	}
	res.Duration = 0
	res.HandoffDelay = 0
	res.UsefulFLOPs = 0
	res.RampTime = 0
	res.PadTime = 0
	res.Completions = res.Completions[:0]
	res.Survivors = res.Survivors[:0]
	if len(batch) == 0 {
		return
	}
	b := len(batch)
	rampFLOPs := m.RampFLOPs()

	// Partition exits up front (the decision is a pure function of the
	// sample, so applying it before or after the time loop is equivalent)
	// and histogram them by layer offset: padHist[0] counts samples already
	// past their exit on entry, padHist[k-from+1] counts exits after layer
	// k. The time loop turns this into the pad-waste attribution.
	span := to - from + 2
	if cap(res.padHist) < span {
		res.padHist = make([]int, span) //e3:alloc scratch grow: once per Result, then only for a wider split
	} else {
		res.padHist = res.padHist[:span]
		for i := range res.padHist {
			res.padHist[i] = 0
		}
	}
	exited := 0
	for _, s := range batch {
		e := m.ExitLayerFor(s.Difficulty)
		if e <= to {
			res.Completions = append(res.Completions, Completion{Sample: s, ExitLayer: e})
			exited++
			j := e - from + 1
			if j < 0 {
				j = 0
			}
			res.padHist[j]++
		} else {
			res.Survivors = append(res.Survivors, s)
		}
	}

	t := 0.0
	dead := res.padHist[0]
	for k := from; k <= to; k++ {
		layer := m.Base.Layers[k-1]
		t += spec.LayerTimeW(layer.FLOPs, layer.WeightBytes, b) * slowdown
		res.UsefulFLOPs += layer.FLOPs * float64(b)
		if dead > 0 {
			// Charge the layer pro rata to riders whose exit already passed.
			res.PadTime += spec.LayerTimeW(layer.FLOPs, layer.WeightBytes, b) * slowdown * (float64(dead) / float64(b))
		}
		if m.HasRampAfter(k) || k == L {
			// Inline ramp head: kernels only, decision deferred.
			t += (spec.LayerTime(rampFLOPs, b) + 2*spec.LaunchOverhead) * slowdown
			res.RampTime += (spec.LayerTime(rampFLOPs, b) + 2*spec.LaunchOverhead) * slowdown
		}
		dead += res.padHist[k-from+1]
	}
	res.Duration = t

	// The boundary sync applies all deferred exit decisions; it runs on
	// the host after the device frees, so it lands in HandoffDelay.
	handoff := (SyncBase + float64(b)*SyncPerSample) * slowdown
	if exited > 0 && len(res.Survivors) > 0 {
		handoff += (ReformOverhead + float64(len(res.Survivors))*ReformPerSample) * slowdown
	}
	res.HandoffDelay = handoff
	// Boundary completions happen once decisions are applied.
	for i := range res.Completions {
		res.Completions[i].Offset = t + handoff
	}
}

// SplitHandoff predicts RunSplit's HandoffDelay for planning.
func SplitHandoff(batch int, exitFrac float64) float64 {
	h := SyncBase + float64(batch)*SyncPerSample
	if exitFrac > 1e-9 && exitFrac < 1-1e-9 {
		h += ReformOverhead + float64(batch)*(1-exitFrac)*ReformPerSample
	}
	return h
}

// SplitTime predicts RunSplit's duration for a constant batch without
// materializing samples; exitFrac is the expected fraction of the batch
// exiting at the boundary (drives the reform term).
func SplitTime(m *ee.EEModel, from, to int, batch int, exitFrac float64, spec gpu.Spec) float64 {
	L := m.Base.NumLayers()
	if from < 1 || to > L || from > to {
		panic(fmt.Sprintf("exec: bad split [%d,%d] for %d-layer model", from, to, L))
	}
	if batch <= 0 {
		return 0
	}
	rampFLOPs := m.RampFLOPs()
	t := 0.0
	for k := from; k <= to; k++ {
		l := m.Base.Layers[k-1]
		t += spec.LayerTimeW(l.FLOPs, l.WeightBytes, batch)
		if m.HasRampAfter(k) || k == L {
			t += spec.LayerTime(rampFLOPs, batch) + 2*spec.LaunchOverhead
		}
	}
	_ = exitFrac // the boundary handoff is predicted by SplitHandoff
	return t
}

// SegmentTime predicts the busy time of a segment for a *fractional*
// expected batch profile, matching RunSegment's accounting. survival[k]
// must give the expected batch size entering layer k (1-based); it is the
// optimizer's P(k,c,B) aggregation (§3.2).
func SegmentTime(m *ee.EEModel, from, to int, batchAt func(k int) float64, spec gpu.Spec) float64 {
	L := m.Base.NumLayers()
	if from < 1 || to > L || from > to {
		panic(fmt.Sprintf("exec: bad segment [%d,%d] for %d-layer model", from, to, L))
	}
	rampFLOPs := m.RampFLOPs()
	t := 0.0
	for k := from; k <= to; k++ {
		b := batchAt(k)
		if b <= 1e-9 {
			break
		}
		t += spec.LayerTimeFrac(m.Base.Layers[k-1].FLOPs, m.Base.Layers[k-1].WeightBytes, b)
		if m.HasRampAfter(k) || k == L {
			t += rampCheckTimeFrac(spec, rampFLOPs, b)
			next := 0.0
			if k+1 <= L {
				next = batchAt(k + 1)
			}
			if next < b-1e-9 && next > 1e-9 && k < to {
				t += ReformOverhead + next*ReformPerSample
			}
		}
	}
	return t
}

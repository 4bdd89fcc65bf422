package optimizer

import (
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/simnet"
)

// CostTable memoizes the per-segment quantities the search re-derives for
// every candidate: the stage time of layers [from, to] on each GPU kind
// (under the config's execution mode), the memory-fit verdict for the same
// (segment, kind) pairs, and the boundary activation transfer over the
// worst-case interconnect. Building it is one O(L²·K) pass over the whole
// catalogue; afterwards a candidate evaluation is pure table lookups — no
// exec.SplitTime layer scan and, under the exit-wrapper, no per-candidate
// model clone (the wrapper's only planning effect is which ramp-check
// terms a segment pays, which the table folds in directly).
//
// One table serves all three objectives and — because it covers every
// catalogue kind, not just the kinds a particular cluster holds — every
// replan window, as long as the model geometry, active-ramp set, batch,
// execution mode, and worst-case link are unchanged (CompatibleWith).
type CostTable struct {
	model   *ee.EEModel
	layers  int
	batch   int
	wrapper bool
	link    simnet.Link
	ramps   []int // active-ramp snapshot at build time

	kinds []gpu.Kind
	// time and fits are per-kind L×L matrices indexed (from-1)*L+(to-1),
	// valid for from <= to.
	time [][]float64
	fits [][]bool
	// transfer[to-1] is the boundary activation move after layer to
	// (to < L) on the worst-case link.
	transfer []float64
}

// NewCostTable builds the memo table for one (model, batch, mode, link)
// planning problem. The incremental build accumulates layer terms in
// exactly exec.SplitTime's order, so stage times match the unmemoized
// search bit for bit.
func NewCostTable(m *ee.EEModel, batch int, disableInteriorRamps bool, link simnet.Link) *CostTable {
	L := m.Base.NumLayers()
	t := &CostTable{
		model:   m,
		layers:  L,
		batch:   batch,
		wrapper: disableInteriorRamps,
		link:    link,
		ramps:   append([]int(nil), m.ActiveRamps()...),
		kinds:   gpu.Kinds(),
	}
	rampFLOPs := m.RampFLOPs()
	lmHead := 0.0
	if m.LMHeadRamp {
		lmHead = 2 * float64(m.Base.Hidden) * float64(m.Base.Vocab)
	}
	t.time = make([][]float64, len(t.kinds))
	t.fits = make([][]bool, len(t.kinds))
	for ki, kind := range t.kinds {
		spec := gpu.Get(kind)
		rampTerm := spec.LayerTime(rampFLOPs, batch) + 2*spec.LaunchOverhead
		memLimit := spec.MemGB * 1e9 * 0.9
		times := make([]float64, L*L)
		fits := make([]bool, L*L)
		for from := 1; from <= L; from++ {
			acc := 0.0 // running segment time, ramp terms folded in per mode
			weights := 0.0
			maxAct := 0.0
			for to := from; to <= L; to++ {
				l := m.Base.Layers[to-1]
				acc += spec.LayerTimeW(l.FLOPs, l.WeightBytes, batch)
				// A segment pays a ramp check where the (planning) model
				// keeps a head: under the wrapper only at its own boundary,
				// otherwise at every interior active ramp too.
				ramp := m.HasRampAfter(to) || to == L
				st := acc
				if t.wrapper {
					if ramp {
						st = acc + rampTerm
					}
				} else if ramp {
					acc += rampTerm
					st = acc
				}
				weights += l.WeightBytes
				if l.ActBytes > maxAct {
					maxAct = l.ActBytes
				}
				idx := (from-1)*L + (to - 1)
				times[idx] = st
				// The memory constraint: weights + LM head + double-
				// buffered activations within 90% of device memory (the
				// test oracle SplitFits computes the same unmemoized).
				fits[idx] = (weights+lmHead)+4*maxAct*float64(batch) <= memLimit
			}
		}
		t.time[ki] = times
		t.fits[ki] = fits
	}
	t.transfer = make([]float64, L)
	for to := 1; to < L; to++ {
		t.transfer[to-1] = link.TransferTime(m.Base.Layers[to-1].ActBytes * float64(batch))
	}
	return t
}

// NewCostTableFor builds the memo table for one planning problem. Attach
// the result to Config.Costs to share it across objectives and replan
// windows.
func NewCostTableFor(cfg Config) *CostTable {
	return NewCostTable(cfg.Model, cfg.Batch, cfg.DisableInteriorRamps,
		cfg.Cluster.Topology.WorstCase())
}

// CompatibleWith reports whether the table was built for exactly this
// planning problem: same model (pointer and active-ramp set), layer
// count, batch, execution mode, and worst-case interconnect. Cluster
// inventory does not matter — the table covers the whole catalogue — so
// cost/GPU-minimizing objectives and successive replan windows reuse one
// table.
func (t *CostTable) CompatibleWith(cfg Config) bool {
	if t == nil || cfg.Model == nil || cfg.Cluster == nil {
		return false
	}
	if t.model != cfg.Model || t.batch != cfg.Batch ||
		t.wrapper != cfg.DisableInteriorRamps ||
		t.layers != cfg.Model.Base.NumLayers() {
		return false
	}
	if t.link != cfg.Cluster.Topology.WorstCase() {
		return false
	}
	ramps := cfg.Model.ActiveRamps()
	if len(ramps) != len(t.ramps) {
		return false
	}
	for i, r := range ramps {
		if r != t.ramps[i] {
			return false
		}
	}
	return true
}

// kindIndex maps a catalogue kind to its row in the table.
func (t *CostTable) kindIndex(k gpu.Kind) int {
	for i, kk := range t.kinds {
		if kk == k {
			return i
		}
	}
	return -1
}

// stageTime returns the planned busy time of layers [from, to] on one
// instance of kind ki (table row index) at the table's batch.
func (t *CostTable) stageTime(ki, from, to int) float64 {
	return t.time[ki][(from-1)*t.layers+to-1]
}

// splitFits returns the memoized memory-fit verdict for [from, to] on ki.
func (t *CostTable) splitFits(ki, from, to int) bool {
	return t.fits[ki][(from-1)*t.layers+to-1]
}

// boundaryTransfer returns the activation move after layer to on the
// worst-case link (0 for the final layer — nothing leaves the model).
func (t *CostTable) boundaryTransfer(to int) float64 {
	if to >= t.layers {
		return 0
	}
	return t.transfer[to-1]
}

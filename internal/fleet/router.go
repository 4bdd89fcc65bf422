package fleet

import (
	"fmt"
	"math"
	"strings"
)

// ReplicaSnapshot is the telemetry the router reads at an epoch barrier —
// all of it already exported by the serving stacks: batcher queue depth,
// ledger in-flight backlog, planned capacity, and SLO budget burn.
type ReplicaSnapshot struct {
	Replica int
	Tenant  string
	// QueueDepth is the batcher's pending-sample count at the barrier.
	QueueDepth int
	// Inflight is arrived − completed − dropped from the ledger's O(1)
	// exact totals: samples admitted but not yet terminal.
	Inflight int
	// Capacity is the allocation plan's goodput (samples/s).
	Capacity float64
	// Burn is the SLO budget burn rate ObserveWindow reported for the
	// last epoch (0 before the first barrier).
	Burn float64
	// Score is the routing weight derived from the above.
	Score float64
}

// TenantDecision is the router's per-epoch record for one tenant: the
// scores it routed with, where every arrival went, and how many were
// shed at the front door. Together with the deterministic smooth-WRR
// rule, it fully determines the assignment sequence.
type TenantDecision struct {
	Tenant string
	Scores []float64
	// Routed[r] counts this epoch's arrivals assigned to replica r.
	Routed []int
	// Shed counts arrivals rejected by front-door admission (the whole
	// fleet too backlogged to meet the deadline).
	Shed int
}

// EpochDecision is one epoch's routing record.
type EpochDecision struct {
	Epoch   int
	End     float64
	Tenants []TenantDecision
}

// Router scores replicas from barrier-time telemetry and spreads each
// tenant's arrivals with a smooth weighted round-robin: every arrival
// adds each replica's score to its credit, the highest credit wins (ties
// to the lowest index), and the winner pays the total score back. The
// credit state persists across epochs so long-run shares track scores
// even when epochs carry few arrivals. The router is owned by the
// coordinator goroutine; shards never touch it.
type Router struct {
	nReplicas int
	// credits[t][r] is tenant t's smooth-WRR credit for replica r.
	credits [][]float64
	// inflight, caps and runs are per-replica scratch reused by every
	// route call: the tenant's backlog view, planned capacities and
	// arrival runs.
	inflight []int
	caps     []float64
	runs     []*arrivalRun
	// Log is the append-only decision record; its Digest is part of the
	// fleet determinism contract.
	Log []EpochDecision
	// Minted / RoutedTotal / ShedTotal are fleet-conservation counters:
	// Minted == RoutedTotal + ShedTotal always.
	Minted      int
	RoutedTotal int
	ShedTotal   int
}

// NewRouter builds a router for nReplicas × nTenants credit lanes.
func NewRouter(nReplicas, nTenants int) *Router {
	r := &Router{
		nReplicas: nReplicas,
		inflight:  make([]int, nReplicas),
		caps:      make([]float64, nReplicas),
		runs:      make([]*arrivalRun, nReplicas),
	}
	for i := 0; i < nTenants; i++ {
		r.credits = append(r.credits, make([]float64, nReplicas))
	}
	return r
}

// minScore floors every replica's score so no replica is ever starved:
// even a fully backlogged or budget-burning replica keeps a trickle of
// credit growth and is eventually routed to (the starvation test pins
// this).
const minScore = 0.05

// score computes one (replica, tenant) routing weight:
//
//	capacity × max(minScore, 1 − inflight/(capacity×epochDur)) × 1/(1+max(0, burn−1))
//
// Capacity is the GPU-aware term (an A6000 replica outscores a K80 one);
// the middle term discounts a replica already holding ~an epoch of
// backlog; the last term backs off replicas burning SLO budget faster
// than their target allows.
func score(capacity float64, inflight int, epochDur, burn float64) float64 {
	if capacity <= 0 {
		return minScore
	}
	room := 1 - float64(inflight)/(capacity*epochDur)
	if room < minScore {
		room = minScore
	}
	pen := 1 / (1 + math.Max(0, burn-1))
	return capacity * room * pen
}

// Snapshots reads every (replica, tenant) stack's barrier-time telemetry
// and derives routing scores. Replica-major, tenant-minor order.
func (ro *Router) Snapshots(f *Fleet) []ReplicaSnapshot {
	var out []ReplicaSnapshot
	for _, rep := range f.replicas {
		for ti, rt := range rep.tenants {
			arrived, completed, dropped := rt.st.Coll.Audit.Totals()
			s := ReplicaSnapshot{
				Replica:    rep.Index,
				Tenant:     f.cfg.Tenants[ti].Name,
				QueueDepth: rt.st.Batcher.QueueLen(),
				Inflight:   arrived - completed - dropped,
				Capacity:   rt.capacity,
				Burn:       rt.lastBurn,
			}
			s.Score = score(s.Capacity, s.Inflight, f.cfg.EpochDur, s.Burn)
			out = append(out, s)
		}
	}
	return out
}

// RouteEpoch routes every tenant arrival in (start, end]: it applies
// front-door admission, assigns survivors to replicas by smooth WRR over
// barrier-time scores, and injects each replica's share into its event
// loop. Arrivals come from the epoch's buffer when Run minted it ahead,
// and are minted here otherwise. Coordinator-only; must run between
// barriers, never concurrently with shard execution.
func (ro *Router) RouteEpoch(f *Fleet, epoch int, start, end float64) EpochDecision {
	snaps := ro.Snapshots(f)
	dec := EpochDecision{Epoch: epoch, End: end}
	for ti := range f.cfg.Tenants {
		b := f.sources[ti].minted(epoch, end)
		dec.Tenants = append(dec.Tenants, ro.route(f, ti, snaps, b, start))
	}
	ro.Log = append(ro.Log, dec)
	return dec
}

// route is RouteEpoch for one tenant's minted epoch buffer b. Shed
// arrivals consumed an ID and a difficulty draw too — they existed — but
// reach no ledger; only the router remembers them (Minted = RoutedTotal +
// ShedTotal).
func (ro *Router) route(f *Fleet, ti int, snaps []ReplicaSnapshot, b *epochBuf, start float64) TenantDecision {
	t := f.cfg.Tenants[ti]
	td := TenantDecision{
		Tenant: t.Name,
		Scores: make([]float64, ro.nReplicas),
		Routed: make([]int, ro.nReplicas),
	}
	// The tenant's score row and mutable backlog view for this epoch.
	inflight, caps, runs := ro.inflight, ro.caps, ro.runs
	for _, s := range snaps {
		if s.Tenant != t.Name {
			continue
		}
		td.Scores[s.Replica] = s.Score
		inflight[s.Replica] = s.Inflight + s.QueueDepth
	}
	total := 0.0
	for _, s := range td.Scores {
		total += s
	}
	for r, rep := range f.replicas {
		caps[r] = rep.tenants[ti].capacity
		runs[r] = rep.beginRun(ti, b)
	}
	ro.Minted += len(b.recs)
	for i, rc := range b.recs {
		// Front-door admission: if even the least-loaded replica's
		// estimated backlog at this arrival's time — epoch-start
		// inflight plus what we routed it this epoch, minus what it
		// drains at planned capacity by then — cannot clear within
		// the SLO, the deadline is hopeless fleet-wide: shed at the
		// door instead of burning a replica's queue on it.
		if doorHopeless(inflight, caps, t.SLO, rc.at-start) {
			td.Shed++
			ro.ShedTotal++
			continue
		}
		pick := ro.pickWRR(ti, td.Scores, total)
		td.Routed[pick]++
		ro.RoutedTotal++
		inflight[pick]++
		runs[pick].idx = append(runs[pick].idx, int32(i))
	}
	for _, rep := range f.replicas {
		rep.inject(ti)
	}
	return td
}

// doorHopeless reports whether no replica can clear its estimated
// backlog for this tenant within the SLO — the fleet-level analogue of
// the batcher's deadlineHopeless check. The estimate drains the
// barrier-time backlog at planned capacity caps[r] for the `elapsed`
// seconds since the epoch started, so arrivals late in an epoch are not
// charged for backlog the replica has already worked off.
func doorHopeless(inflight []int, caps []float64, slo, elapsed float64) bool {
	for r, cap := range caps {
		if cap <= 0 {
			continue
		}
		est := float64(inflight[r]) - cap*elapsed
		if est <= 0 || est/cap <= slo {
			return false
		}
	}
	return true
}

// pickWRR advances tenant ti's smooth weighted round-robin one step.
func (ro *Router) pickWRR(ti int, scores []float64, total float64) int {
	credits := ro.credits[ti]
	best := 0
	for r := 0; r < ro.nReplicas; r++ {
		credits[r] += scores[r]
		if credits[r] > credits[best] {
			best = r
		}
	}
	credits[best] -= total
	return best
}

// Digest canonically serializes the decision log: every epoch, every
// tenant, every score and per-replica count. Byte-identical digests mean
// identical routing — the second half of the determinism contract.
func (ro *Router) Digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router minted=%d routed=%d shed=%d\n", ro.Minted, ro.RoutedTotal, ro.ShedTotal)
	for _, ep := range ro.Log {
		fmt.Fprintf(&b, "epoch %d end=%.9g\n", ep.Epoch, ep.End)
		for _, td := range ep.Tenants {
			fmt.Fprintf(&b, "  %s shed=%d", td.Tenant, td.Shed)
			for r := range td.Routed {
				fmt.Fprintf(&b, " r%d=%d/%.6g", r, td.Routed[r], td.Scores[r])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

package optimizer

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// RejectReason classifies why the search discarded a candidate plan.
type RejectReason string

// Rejection reasons. Every enumerated candidate either survives as a
// feasible plan or is rejected for exactly one of these, so the trace's
// accounting identity (sum of reasons + feasible == enumerated) holds.
const (
	// RejectMemory: some split does not fit its assigned GPU kind's
	// memory (weights plus working set within 90% of the device).
	RejectMemory RejectReason = "memory-misfit"
	// RejectReplicas: the cluster cannot supply even the minimum replica
	// counts for the candidate's kind assignment.
	RejectReplicas RejectReason = "replica-shortage"
	// RejectSLO: the candidate's end-to-end latency exceeds SLO minus
	// slack.
	RejectSLO RejectReason = "slo-violation"
	// RejectRate: the candidate is feasible but sustains less than the
	// target rate (minimizing objectives only).
	RejectRate RejectReason = "below-target-rate"
	// RejectDegenerate: the candidate produced no forward progress (zero
	// stage times or an empty cluster).
	RejectDegenerate RejectReason = "degenerate"
)

// rejectOrder fixes the rendering order of reasons in Explain output.
var rejectOrder = []RejectReason{
	RejectMemory, RejectReplicas, RejectSLO, RejectRate, RejectDegenerate,
}

// Dense reason indices for the search's per-task tallies (array instead
// of a map on the hot path). Order matches rejectOrder.
const (
	idxMemory = iota
	idxReplicas
	idxSLO
	idxRate
	idxDegenerate
	numReasons
)

func reasonIndex(r RejectReason) int {
	switch r {
	case RejectMemory:
		return idxMemory
	case RejectReplicas:
		return idxReplicas
	case RejectSLO:
		return idxSLO
	case RejectRate:
		return idxRate
	}
	return idxDegenerate
}

var reasonByIndex = [numReasons]RejectReason{
	RejectMemory, RejectReplicas, RejectSLO, RejectRate, RejectDegenerate,
}

// maxRunnersUp bounds how many losing candidates the trace retains with
// scores.
const maxRunnersUp = 5

// ScoredPlan is one retained candidate with its objective score (goodput
// for max-goodput, device count for min-gpus, $/s for min-cost).
type ScoredPlan struct {
	Plan  Plan    `json:"plan"`
	Score float64 `json:"score"`
}

// SearchTrace records one planning invocation's search: the input
// snapshot, how many candidates were enumerated and why the losers lost,
// and the winner with its top runners-up. Attach one via Config.Trace.
//
// Like audit.Ledger and telemetry.Tracer, a nil *SearchTrace is valid and
// records nothing, so the planner's hot path pays nothing when provenance
// is off. A SearchTrace is single-use: attach a fresh one per planning
// call.
type SearchTrace struct {
	// Input snapshot.
	Objective  string         `json:"objective"`
	Model      string         `json:"model"`
	Layers     int            `json:"layers"`
	Batch      int            `json:"batch"`
	SLO        float64        `json:"slo_s"`
	SlackFrac  float64        `json:"slack_frac"`
	TargetRate float64        `json:"target_rate,omitempty"`
	Profile    []float64      `json:"profile"`
	Cluster    map[string]int `json:"cluster"`

	// Boundary-candidate pruning (§3.2's first filter).
	RampCandidates []int `json:"ramp_candidates"`
	PrunedRamps    int   `json:"ramps_pruned_below_min_exit"`
	CappedRamps    int   `json:"ramps_capped"`

	// Candidate accounting: Enumerated == sum(Rejected) + Feasible.
	Enumerated int                  `json:"candidates_enumerated"`
	Rejected   map[RejectReason]int `json:"rejected_by_reason"`
	Feasible   int                  `json:"feasible"`
	// Dominance pruning (fast path only): kind-assignment subtrees whose
	// admissible bound proved they cannot beat the incumbent or reach the
	// target, and the candidates inside them. Pruned candidates are never
	// enumerated, so the accounting identity above is unaffected.
	PrunedSubtrees   int `json:"pruned_subtrees"`
	PrunedCandidates int `json:"pruned_candidates"`
	// Beaten counts feasible candidates that lost to the winner on the
	// objective (Feasible - 1 when a winner exists).
	Beaten int `json:"beaten"`

	Winner    *Plan        `json:"winner,omitempty"`
	RunnersUp []ScoredPlan `json:"runners_up"`
	// Err records the planner's failure when no feasible plan existed.
	Err string `json:"error,omitempty"`

	// top retains the best candidates seen, winner first, under better.
	top    []ScoredPlan
	better func(a, b Plan) bool
	score  func(Plan) float64
	// mu makes the recording hooks race-safe; the parallel search merges
	// per-partition tallies under it (absorb).
	mu sync.Mutex
}

// begin snapshots the planning inputs and installs the objective's
// comparator. cfg must already have defaults applied.
func (t *SearchTrace) begin(cfg Config, objective string, target float64,
	better func(a, b Plan) bool, score func(Plan) float64) {
	if t == nil {
		return
	}
	t.Objective = objective
	t.TargetRate = target
	t.Model = cfg.Model.Name
	t.Layers = cfg.Model.Base.NumLayers()
	t.Batch = cfg.Batch
	t.SLO = cfg.SLO
	t.SlackFrac = cfg.SlackFrac
	t.Profile = make([]float64, t.Layers)
	for k := 1; k <= t.Layers; k++ {
		t.Profile[k-1] = cfg.Profile.At(k)
	}
	t.Cluster = make(map[string]int)
	for kind, n := range cfg.Cluster.Counts() {
		t.Cluster[string(kind)] = n
	}
	t.Rejected = make(map[RejectReason]int)
	t.RunnersUp = []ScoredPlan{}
	t.better = better
	t.score = score
}

// ramps records the boundary-candidate filter's outcome.
func (t *SearchTrace) ramps(cands []int, pruned, capped int) {
	if t == nil {
		return
	}
	t.RampCandidates = append([]int(nil), cands...)
	t.PrunedRamps = pruned
	t.CappedRamps = capped
}

// candidate counts one enumerated partition × kind assignment.
func (t *SearchTrace) candidate() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Enumerated++
	t.mu.Unlock()
}

// insertScored inserts sp into a bounded best-first list under better.
// Insertion preserves first-seen order on ties, mirroring the planner's
// own "strictly better replaces" rule, so top[0] is always the plan the
// planner will pick from the candidates inserted so far.
func insertScored(top []ScoredPlan, sp ScoredPlan, better func(a, b Plan) bool) []ScoredPlan {
	pos := len(top)
	for i := range top {
		if better(sp.Plan, top[i].Plan) {
			pos = i
			break
		}
	}
	if pos >= maxRunnersUp+1 {
		return top
	}
	top = append(top, ScoredPlan{})
	copy(top[pos+1:], top[pos:])
	top[pos] = sp
	if len(top) > maxRunnersUp+1 {
		top = top[:maxRunnersUp+1]
	}
	return top
}

// absorb folds one partition task's private tally into the trace. The
// parallel search calls it at chunk barriers in enumeration order, so the
// retained top list is byte-identical to a serial run: any candidate
// evicted from a task-local bounded list would also have been evicted
// from the global one (its evictors precede it globally too).
func (t *SearchTrace) absorb(tal *partTally) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Enumerated += tal.enumerated
	for i, n := range tal.rejected {
		if n > 0 {
			t.Rejected[reasonByIndex[i]] += n
		}
	}
	t.Feasible += tal.feasible
	t.PrunedSubtrees += tal.prunedSubtrees
	t.PrunedCandidates += tal.prunedCands
	for _, sp := range tal.top {
		t.top = insertScored(t.top, sp, t.better)
	}
}

// finish closes the trace with the planner's outcome.
func (t *SearchTrace) finish(winner Plan, found bool, err error) {
	if t == nil {
		return
	}
	if err != nil {
		t.Err = err.Error()
	}
	if found {
		w := winner
		t.Winner = &w
		t.Beaten = t.Feasible - 1
		if len(t.top) > 1 {
			t.RunnersUp = append([]ScoredPlan(nil), t.top[1:]...)
		}
	}
}

// Accounted reports the trace's conservation identity: every enumerated
// candidate was either rejected for exactly one reason or survived as
// feasible, and every feasible candidate is the winner or beaten.
func (t *SearchTrace) Accounted() bool {
	if t == nil {
		return true
	}
	rejected := 0
	for _, n := range t.Rejected {
		rejected += n
	}
	if rejected+t.Feasible != t.Enumerated {
		return false
	}
	if t.Winner != nil && t.Beaten != t.Feasible-1 {
		return false
	}
	return true
}

// clusterString renders the cluster snapshot deterministically
// (kind=count, sorted by kind).
func (t *SearchTrace) clusterString() string {
	kinds := make([]string, 0, len(t.Cluster))
	for k := range t.Cluster {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := ""
	for i, k := range kinds {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%d", k, t.Cluster[k])
	}
	return out
}

// scoreUnit names the objective's score for Explain output.
func (t *SearchTrace) scoreUnit() string {
	switch t.Objective {
	case "min-gpus":
		return "gpus"
	case "min-cost":
		return "$/s"
	}
	return "samples/s"
}

// WriteExplain renders the trace as a human-readable "why this plan won"
// report.
func (t *SearchTrace) WriteExplain(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "search: objective %s, model %s (%d layers), batch %d, SLO %.0fms (slack %.0f%%), cluster %s\n",
		t.Objective, t.Model, t.Layers, t.Batch, t.SLO*1e3, t.SlackFrac*100, t.clusterString())
	if t.TargetRate > 0 {
		fmt.Fprintf(w, "target: %.0f samples/s\n", t.TargetRate)
	}
	fmt.Fprintf(w, "ramps:  %d boundary candidate(s) kept (%d pruned below min exit mass, %d capped): %v\n",
		len(t.RampCandidates), t.PrunedRamps, t.CappedRamps, t.RampCandidates)
	if t.PrunedCandidates > 0 {
		fmt.Fprintf(w, "pruned: %d candidate(s) in %d subtree(s) killed by dominance bounds before evaluation\n",
			t.PrunedCandidates, t.PrunedSubtrees)
	}
	fmt.Fprintf(w, "enumerated %d candidate(s):\n", t.Enumerated)
	for _, r := range rejectOrder {
		if n := t.Rejected[r]; n > 0 {
			fmt.Fprintf(w, "  %-18s %d\n", string(r), n)
		}
	}
	fmt.Fprintf(w, "  %-18s %d", "feasible", t.Feasible)
	if t.Winner != nil && t.Beaten > 0 {
		fmt.Fprintf(w, "  (%d beaten on %s)", t.Beaten, t.scoreUnit())
	}
	fmt.Fprintln(w)
	if t.Winner == nil {
		fmt.Fprintf(w, "no feasible plan: %s\n", t.Err)
		return
	}
	fmt.Fprintf(w, "winner: %s\n", t.Winner)
	for i, ru := range t.RunnersUp {
		fmt.Fprintf(w, "  #%d %s %s", i+2, scoreString(ru.Score, t.Objective), ru.Plan)
		if t.Objective == "max-goodput" && t.Winner.Goodput > 0 {
			fmt.Fprintf(w, "  (%.1f%% vs winner)", (ru.Score/t.Winner.Goodput-1)*100)
		}
		fmt.Fprintln(w)
	}
}

// scoreString formats a score with its objective's unit.
func scoreString(score float64, objective string) string {
	switch objective {
	case "min-gpus":
		return fmt.Sprintf("%.0f gpus", score)
	case "min-cost":
		return fmt.Sprintf("$%.5f/s", score)
	}
	return fmt.Sprintf("%.0f/s", score)
}

// Package scheduler executes plans on the simulated cluster: E3's
// heterogeneity-aware model-parallel pipeline (§3.3), the data-parallel
// runner the baselines use, and the phase-synchronized serial runner of
// the model-parallelism ablation (§5.8.7). All runners share a Collector
// that accounts goodput, latency, utilization, and the observed exit
// histogram that feeds E3's online profiler.
package scheduler

import (
	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/exec"
	"e3/internal/flame"
	"e3/internal/metrics"
	"e3/internal/profile"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/workload"
)

// Runner is anything that accepts formed batches and serves them.
type Runner interface {
	// Ingest hands a formed batch to the runner at the current virtual
	// time. The runner owns the samples from then on.
	Ingest(batch []workload.Sample)
	// Collector exposes the runner's statistics sink.
	Collector() *Collector
}

// Collector accumulates serving statistics and is the one place that
// decides which observer sees which lifecycle boundary. Runners and the
// batcher report each boundary once, through the methods below; the
// collector fans it out to the ledger, tracer, attribution and profiler,
// each nil-safe, so a runner never names an observer.
type Collector struct {
	SLO float64

	Lat  metrics.LatencyRecorder
	Good *metrics.GoodputMeter
	Util *metrics.UtilizationTracker

	// Violations counts samples completed after their deadline; Dropped
	// counts samples shed before execution. The ledger's report breaks
	// drops down by reason.
	Violations int
	Dropped    int

	// The observers, each optional (nil disables it at zero cost):
	// Audit is the lifecycle ledger the generator also writes to; Trace
	// records per-batch execute, transfer, fusion and queue-wait spans;
	// Attr attributes each request's latency to its critical path; Flame
	// folds executed batches, transfers and fusion waits into a
	// virtual-time compute profile whose totals reconcile exactly against
	// Util. Reconcile checks the other three against the ledger.
	Audit *audit.Ledger
	Trace *telemetry.Tracer
	Attr  *slo.Attribution
	Flame *flame.Profiler

	// exitCounts[k] counts samples that exited after layer k (1-based).
	exitCounts []int
	layers     int

	// Per-window counters for the overload detector (reset each window).
	windowServed     int
	windowViolations int
}

// NewCollector builds a collector for an L-layer model.
func NewCollector(layers int, slo, start float64) *Collector {
	return &Collector{
		SLO:        slo,
		Good:       metrics.NewGoodputMeter(start),
		Util:       metrics.NewUtilizationTracker(start),
		exitCounts: make([]int, layers+1),
		layers:     layers,
	}
}

// Register makes a device the runner serves on visible to the
// utilization ledger and the profiler even if it never runs a batch.
func (c *Collector) Register(dev *cluster.Device) {
	c.Util.Register(dev.ID)
	c.Flame.Register(dev.ID, string(dev.Kind))
}

// Queued records a sample's admission into a batcher queue.
func (c *Collector) Queued(s workload.Sample, at float64) {
	c.Audit.Queued(s.ID, at)
	c.Attr.Queued(s, at)
}

// QueueWait records a batch of n leaving the batcher queue at end, its
// head having entered it at start.
func (c *Collector) QueueWait(n int, start, end float64) {
	c.Trace.QueueWait(n, start, end)
}

// Dispatched records a sample handed to a stage's instance (a device
// index) at virtual time at.
func (c *Collector) Dispatched(s workload.Sample, at float64, stage, device int) {
	c.Audit.Dispatched(s.ID, at, stage, device)
	c.Attr.Dispatched(s, at, stage)
}

// Executed records one batch running layers [from, to] of the named model
// as the given stage on dev from t0 for res.Duration, crediting the busy
// time to the utilization ledger.
func (c *Collector) Executed(dev *cluster.Device, model string, stage, from, to int, batch []workload.Sample, t0 float64, res *exec.Result) {
	end := t0 + res.Duration
	c.Util.AddBusy(dev.ID, t0, res.Duration)
	c.Trace.Execute(dev.ID, string(dev.Kind), stage, len(batch), t0, end)
	c.Attr.Executed(stage, batch, t0, end)
	c.Flame.Execute(dev.ID, string(dev.Kind), model, stage, from, to, t0, end, res.RampTime, res.PadTime)
}

// Transferred records n survivors of stage moving their activations to
// stage+1 over [start, end].
func (c *Collector) Transferred(stage, n int, start, end float64) {
	c.Trace.Transfer(stage, n, start, end)
	c.Flame.Transfer(stage+1, start, end)
}

// Merged records a survivor entering stage's merge queue.
func (c *Collector) Merged(s workload.Sample, at float64, stage int) {
	c.Audit.Merged(s.ID, at, stage)
	c.Attr.Merged(s, at, stage)
}

// Fused records a batch of n formed from stage's merge queue at end, its
// head having waited there since start.
func (c *Collector) Fused(stage, n int, start, end float64) {
	c.Trace.Fuse(stage, n, start, end)
	c.Flame.Fuse(stage, start, end)
}

// Complete records a sample finishing at virtual time `at` having exited
// after the given layer.
func (c *Collector) Complete(s workload.Sample, at float64, exitLayer int) {
	c.Lat.Observe(at - s.Arrival)
	if exitLayer >= 1 && exitLayer <= c.layers {
		c.exitCounts[exitLayer]++
	}
	if at <= s.Deadline {
		c.Good.ServeOK(1, at)
		c.windowServed++
	} else {
		c.Violations++
		c.Good.Drop(1, at)
		c.windowViolations++
	}
	c.Audit.Completed(s.ID, at, exitLayer)
	c.Trace.Complete(at, at-s.Arrival)
	c.Attr.Completed(s, at)
}

// Drop records a sample shed without execution, classified by reason
// (admission control, stale-backlog shedding, or SLA-pressure flush).
func (c *Collector) Drop(s workload.Sample, at float64, reason audit.Reason) {
	c.Dropped++
	c.Good.Drop(1, at)
	c.windowViolations++
	c.Audit.Dropped(s.ID, at, reason)
	c.Trace.Drop(at, string(reason))
	c.Attr.Dropped(s, at)
}

// AuditReport verifies the attached ledger's conservation invariants and
// cross-checks its terminal totals against this collector's counters.
// With no ledger attached it reports only the counter cross-check (which
// fails unless both sides are zero, making a missing ledger loud).
func (c *Collector) AuditReport() *audit.Report {
	r := c.Audit.Verify()
	r.CrossCheck(c.Good.Served+c.Violations, c.Dropped)
	return r
}

// Reconcile closes the run at virtual time now: it extends the profile to
// the run's end, verifies the ledger (AuditReport), and folds every
// observer's disagreement with it into the returned report — tracer
// counters, attributed breakdowns, and the profile's exact busy/idle
// accounting against Util, whose outcome it also returns.
func (c *Collector) Reconcile(now float64) (*audit.Report, flame.ReconcileStat) {
	c.Flame.CloseAt(now)
	rep := c.AuditReport()
	c.Trace.Reconcile(rep)
	c.Attr.Reconcile(rep)
	return rep, c.Flame.Reconcile(rep, c.Util)
}

// ObservedProfile reconstructs the survival profile from the exit
// histogram — the measurement E3's estimator consumes each window (§3.1).
func (c *Collector) ObservedProfile() profile.Batch {
	total := 0
	for _, n := range c.exitCounts {
		total += n
	}
	surv := make([]float64, c.layers)
	if total == 0 {
		for k := range surv {
			surv[k] = 1
		}
		return profile.NewBatch(surv)
	}
	alive := total
	for k := 1; k <= c.layers; k++ {
		surv[k-1] = float64(alive) / float64(total)
		alive -= c.exitCounts[k]
	}
	return profile.NewBatch(surv)
}

// WindowBadFrac reports the fraction of this window's outcomes that were
// violations or drops — the overload signal for buffer activation.
func (c *Collector) WindowBadFrac() float64 {
	total := c.windowServed + c.windowViolations
	if total == 0 {
		return 0
	}
	return float64(c.windowViolations) / float64(total)
}

// WindowCounts exposes the current window's served and violation
// counters (drops are already folded into violations) so an external
// budget accountant — the fleet router's per-epoch burn scoring — can
// feed slo.Budget.ObserveWindow without owning the collector.
func (c *Collector) WindowCounts() (served, violations int) {
	return c.windowServed, c.windowViolations
}

// ResetWindow clears the exit histogram and window counters for the next
// scheduling window while keeping cumulative serving metrics.
func (c *Collector) ResetWindow() {
	for i := range c.exitCounts {
		c.exitCounts[i] = 0
	}
	c.windowServed = 0
	c.windowViolations = 0
}

package serving

import (
	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/flame"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/trace"
	"e3/internal/workload"
)

// Observe names the optional observers an audited run attaches next to
// its ledger: the span tracer, the per-request latency attribution, and
// the virtual-time compute profiler. Any may be nil; the zero Observe
// runs the ledger alone.
type Observe struct {
	Trace *telemetry.Tracer
	Attr  *slo.Attribution
	Flame *flame.Profiler
}

// AuditOpenLoop replays an arrival trace through a dynamic batcher with
// the lifecycle ledger and obs's observers wired end to end (generator →
// batcher → runner → collector), then verifies conservation: every minted
// sample must be completed or dropped exactly once, with monotone
// timestamps and classified drop reasons, and Collector.Reconcile folds
// every observer's disagreement with the ledger into the report. The
// runner is built by mk against the engine and the observed collector. It
// returns the verified report and the collector for further inspection.
func AuditOpenLoop(mk func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error),
	layers int, arr trace.Arrivals, dist workload.Dist, estService, sloDeadline float64, batch int, seed int64,
	obs Observe) (*audit.Report, *scheduler.Collector, error) {
	eng := sim.NewEngine()
	coll := scheduler.NewCollector(layers, sloDeadline, 0)
	coll.Audit = audit.NewLedger()
	coll.Trace, coll.Attr, coll.Flame = obs.Trace, obs.Attr, obs.Flame
	r, err := mk(eng, coll)
	if err != nil {
		return nil, nil, err
	}
	gen := workload.NewGenerator(dist, seed)
	gen.SetAudit(coll.Audit)
	gen.SetTrace(obs.Trace)
	b := NewBatcher(eng, r, batch, estService, 0.2)
	c, err := RunOpenLoop(eng, r, b, arr, gen, sloDeadline)
	if err != nil {
		// A truncated run cannot be audited — conservation is trivially
		// violated when in-flight samples were abandoned mid-event-loop.
		return nil, c, err
	}
	rep, _ := c.Reconcile(eng.Now())
	return rep, c, nil
}

// AuditPlan runs a bursty open-loop conservation audit of an E3 plan on
// the given cluster with obs's observers attached — the self-check and
// observer warm-up e3-serve performs at boot before exposing the plan
// over HTTP. The observers end up holding the run's spans, critical-path
// breakdowns and compute profile for the live endpoints.
func AuditPlan(clus *cluster.Cluster, m *ee.EEModel, plan optimizer.Plan, dist workload.Dist,
	avgRate, horizon, sloDeadline float64, seed int64, obs Observe) (*audit.Report, *scheduler.Collector, error) {
	arr := trace.Bursty(trace.DefaultBursty(avgRate), horizon, seed)
	return AuditOpenLoop(func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
		return scheduler.NewPipeline(eng, clus, m, plan, coll)
	}, m.Base.NumLayers(), arr, dist, plan.Latency, sloDeadline, plan.Batch, seed, obs)
}

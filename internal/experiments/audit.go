package experiments

import (
	"fmt"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/telemetry"
	"e3/internal/trace"
)

func init() {
	register("audit", func() Table { t, _ := RunAudit(); return t })
}

// RunAudit drives a bursty open-loop trace through each runner (E3
// pipeline, data-parallel baseline, serial ablation) with the lifecycle
// ledger and a ring span tracer attached, and reports the conservation
// verdict per runner. The tracer's event counts are reconciled against
// the ledger (telemetry.Tracer.Reconcile), so a recording bug surfaces as
// an audit violation. The second return value counts invariant violations
// across all runners; cmd/e3-bench -audit exits nonzero when it is not 0.
func RunAudit() (Table, int) {
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 8) }
	const (
		batch   = 8
		avgRate = 2000.0
		horizon = 10.0
		seed    = 424242
	)
	arr := trace.Bursty(trace.DefaultBursty(avgRate), horizon, seed)

	t := Table{
		ID:      "audit",
		Title:   "Lifecycle conservation audit (bursty open loop, all runners)",
		Columns: []string{"runner", "samples", "completed", "dropped", "admission", "stale-shed", "sla-flush", "violations", "verdict"},
		Notes:   "every minted sample must terminate exactly once with monotone timestamps and a classified drop reason",
	}

	plan, err := planE3(mk(), dee, dist, batch, defaultSLO, nil)
	if err != nil {
		t.Rows = append(t.Rows, []string{"pipeline", "-", "-", "-", "-", "-", "-", "-", "planning failed: " + err.Error()})
		return t, 1
	}

	type runnerCase struct {
		name string
		est  float64
		mk   func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error)
	}
	cases := []runnerCase{
		{"pipeline", plan.Latency, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewPipeline(eng, mk(), dee, plan, coll)
		}},
		{"dataparallel", 0.030, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			clus := mk()
			devs := make([]int, clus.Size())
			for i := range devs {
				devs[i] = i
			}
			return scheduler.NewDataParallel(eng, clus, dee, devs, coll)
		}},
		{"serial", plan.Latency, func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
			return scheduler.NewSerial(eng, mk(), dee, plan, coll), nil
		}},
	}

	violations := 0
	for _, rc := range cases {
		rep, _, err := serving.AuditOpenLoop(rc.mk, base.NumLayers(), arr, dist, rc.est, defaultSLO, batch, seed,
			serving.Observe{Trace: telemetry.NewRing(4096)})
		if err != nil {
			t.Rows = append(t.Rows, []string{rc.name, "-", "-", "-", "-", "-", "-", "-", "build failed: " + err.Error()})
			violations++
			continue
		}
		verdict := "OK"
		if !rep.OK() {
			verdict = "FAIL: " + rep.Violations[0]
			violations += len(rep.Violations)
		}
		t.Rows = append(t.Rows, []string{
			rc.name,
			itoa(rep.Samples), itoa(rep.Completed), itoa(rep.Dropped),
			itoa(rep.ByReason[audit.ReasonAdmission]),
			itoa(rep.ByReason[audit.ReasonStaleShed]),
			itoa(rep.ByReason[audit.ReasonSLAFlush]),
			itoa(len(rep.Violations)),
			verdict,
		})
	}
	if violations > 0 {
		t.Notes = fmt.Sprintf("%s — %d VIOLATION(S) FOUND", t.Notes, violations)
	}
	return t, violations
}

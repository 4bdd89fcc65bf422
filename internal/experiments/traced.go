package experiments

import (
	"fmt"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/trace"
)

// The traced demo reuses the audit experiment's setting (BERT-Base
// DeeBERT, V100×8, bursty open loop) so the exported timeline shows the
// same run the conservation audit verifies.
const (
	tracedBatch   = 8
	tracedAvgRate = 2000.0
	tracedHorizon = 10.0
	tracedSeed    = 424242
)

// RunDemo plans the demo setting and replays it through the named runner
// — "pipeline" for the E3 pipeline, "serial" for the phase-synchronized
// Serial runner of §5.8.7 on the same seed and plan — with obs's
// observers attached end to end (the zero Observe measures the
// unobserved baseline). The returned report has every observer
// reconciled against the ledger; horizon is virtual seconds of bursty
// arrivals.
func RunDemo(runner string, obs serving.Observe, horizon float64) (*audit.Report, *scheduler.Collector, optimizer.Plan, error) {
	if runner != "pipeline" && runner != "serial" {
		return nil, nil, optimizer.Plan{}, fmt.Errorf("experiments: demo runner must be pipeline or serial (got %q)", runner)
	}
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 8) }

	plan, err := planE3(mk(), dee, dist, tracedBatch, defaultSLO, nil)
	if err != nil {
		return nil, nil, optimizer.Plan{}, err
	}
	arr := trace.Bursty(trace.DefaultBursty(tracedAvgRate), horizon, tracedSeed)
	rep, coll, err := serving.AuditOpenLoop(func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
		if runner == "serial" {
			return scheduler.NewSerial(eng, mk(), dee, plan, coll), nil
		}
		return scheduler.NewPipeline(eng, mk(), dee, plan, coll)
	}, base.NumLayers(), arr, dist, plan.Latency, defaultSLO, tracedBatch, tracedSeed, obs)
	if err != nil {
		return nil, nil, optimizer.Plan{}, err
	}
	return rep, coll, plan, nil
}

package experiments

import (
	"os"
	"testing"
	"time"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
)

// PlanSimBench computes the plan a config would use, so the gate can
// keep planning outside its timed region.
func PlanSimBench(cfg SimBenchConfig) (optimizer.Plan, error) {
	base := model.BERTBase()
	dee := ee.NewDeeBERT(base, 0.4)
	return planE3(cluster.Homogeneous(gpu.V100, cfg.GPUs), dee, mix80(), cfg.Batch, defaultSLO, nil)
}

// TestSimBenchPooledUnpooledByteIdentical is the determinism property the
// fast path must never trade away: for any seed, a pooled run and an
// unpooled run of the same config produce identical exhaustive ledger
// digests (every sample's full event sequence), identical event counts,
// and identical serving metrics. It runs unconditionally — it is the
// contract, not a perf gate.
func TestSimBenchPooledUnpooledByteIdentical(t *testing.T) {
	plan, err := PlanSimBench(DefaultSimBench())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 42, 97} {
		cfg := DefaultSimBench()
		cfg.Rate, cfg.Horizon, cfg.Seed = 3000, 4, seed
		cfg.AuditStride = 1 // exhaustive: the digest covers every sample
		cfg.Plan = &plan

		cfg.Pooled = true
		pooled, err := RunSimBench(cfg)
		if err != nil {
			t.Fatalf("seed %d pooled: %v", seed, err)
		}
		cfg.Pooled = false
		plain, err := RunSimBench(cfg)
		if err != nil {
			t.Fatalf("seed %d unpooled: %v", seed, err)
		}

		if pooled.Digest != plain.Digest {
			t.Fatalf("seed %d: pooled and unpooled ledger digests differ — pooling changed execution", seed)
		}
		if pooled.Events != plain.Events {
			t.Fatalf("seed %d: event counts differ (pooled %d, unpooled %d)", seed, pooled.Events, plain.Events)
		}
		if pooled.Requests != plain.Requests || pooled.Completed != plain.Completed || pooled.Dropped != plain.Dropped {
			t.Fatalf("seed %d: terminal totals differ: pooled %d/%d/%d vs unpooled %d/%d/%d",
				seed, pooled.Requests, pooled.Completed, pooled.Dropped,
				plain.Requests, plain.Completed, plain.Dropped)
		}
		if pooled.Goodput != plain.Goodput || pooled.Latency != plain.Latency {
			t.Fatalf("seed %d: serving metrics differ under pooling", seed)
		}
		if !pooled.AuditOK {
			t.Fatalf("seed %d: conservation audit failed: %v", seed, pooled.Report.Violations)
		}
	}
}

// TestSimGate is the env-gated data-plane throughput floor (E3_SIM_GATE=1,
// wired into `make simgate` / `make verify`): a two-virtual-minute slice
// of the paper-scale trace must sustain at least floorEventsPerSec through
// the full serving stack. Wall-clock measurement is legitimate here — the
// virtualtime analyzer exempts test files — and planning runs outside the
// timed region.
func TestSimGate(t *testing.T) {
	if os.Getenv("E3_SIM_GATE") == "" {
		t.Skip("set E3_SIM_GATE=1 to enforce the data-plane events/sec floor")
	}
	// Floor: >6x the pre-fast-path data plane (155k events/s on this
	// hardware class), with headroom below the ~2M/s the fast path
	// measures so slower CI machines do not flake.
	const floorEventsPerSec = 1_000_000

	cfg := DefaultSimBench()
	cfg.Horizon = 120
	plan, err := PlanSimBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Plan = &plan

	start := time.Now()
	res, err := RunSimBench(cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuditOK {
		t.Fatalf("conservation audit failed: %v", res.Report.Violations)
	}
	evps := float64(res.Events) / wall
	t.Logf("requests=%d events=%d wall=%.2fs events/s=%.0f goodput=%.0f",
		res.Requests, res.Events, wall, evps, res.Goodput)
	if evps < floorEventsPerSec {
		t.Fatalf("data plane sustained %.0f events/s, floor is %d", evps, floorEventsPerSec)
	}
}

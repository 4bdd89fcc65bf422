package fleet

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestFleetGate is the `make fleetgate` entry point, env-gated like the
// planner and sim gates so plain `go test ./...` stays fast and free of
// timing noise. It checks both halves of the acceptance bar on the
// demo-scale trace:
//
//  1. Determinism (always meaningful): at every worker count, the
//     parallel fleet reproduces the serial reference byte-for-byte —
//     every per-shard ledger digest and the router decision log.
//  2. Scaling (physically bounded by the host): aggregate events/s at 8
//     shards x 8 workers must beat 1 shard by a factor scaled to the
//     cores actually present — >=4x with 8+ cores, >=2x with 4, >=1.2x
//     with 2, and skipped (loudly) on 1 core, where N goroutines
//     serialize and no speedup is possible. The gate logs the measured
//     ratio next to the core count; the benchmark's fleet-zoo workload
//     reports fleet.speedup with GOMAXPROCS in its envelope.
func TestFleetGate(t *testing.T) {
	if os.Getenv("E3_FLEET_GATE") == "" {
		t.Skip("set E3_FLEET_GATE=1 to run the fleet scaling gate (enabled by `make fleetgate`)")
	}

	// Half 1: demo-scale parallel == serial at every worker count.
	for _, shards := range []int{1, 2, 4, 8} {
		ref, err := Run(DemoConfig(shards, 1))
		if err != nil {
			t.Fatalf("%d shards serial: %v", shards, err)
		}
		par, err := Run(DemoConfig(shards, shards))
		if err != nil {
			t.Fatalf("%d shards parallel: %v", shards, err)
		}
		if par.Digests() != ref.Digests() {
			t.Fatalf("%d shards: parallel run diverged from serial reference", shards)
		}
		t.Logf("%d shards: parallel == serial (%d events, %d routed)", shards, par.Events, par.Routed)
	}

	// Half 2: wall-clock scaling, bounded by the machine.
	cores := runtime.NumCPU()
	required := 0.0
	switch {
	case cores >= 8:
		required = 4.0
	case cores >= 4:
		required = 2.0
	case cores >= 2:
		required = 1.2
	}
	if required == 0 {
		t.Logf("SKIPPING scaling half: only %d CPU core(s) — 8 shard goroutines serialize onto one core, "+
			"so no wall-clock speedup is physically possible; the determinism half above still gates", cores)
		return
	}

	measure := func(shards, workers int) float64 {
		best := 0.0
		for i := 0; i < 2; i++ {
			start := time.Now()
			res, err := Run(DemoConfig(shards, workers))
			wall := time.Since(start).Seconds()
			if err != nil {
				t.Fatalf("%d shards x %d workers: %v", shards, workers, err)
			}
			if eps := float64(res.Events) / wall; eps > best {
				best = eps
			}
		}
		return best
	}
	one := measure(1, 1)
	eight := measure(8, 8)
	factor := eight / one
	t.Logf("scaling: 1 shard %.0f events/s, 8 shards %.0f events/s — %.2fx (required >=%.1fx on %d cores)",
		one, eight, factor, required, cores)
	if factor < required {
		t.Fatalf("fleet scaling %.2fx below the %.1fx bar for %d cores", factor, required, cores)
	}
}

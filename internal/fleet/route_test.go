package fleet

import (
	"math"
	"runtime"
	"sort"
	"testing"
)

// routeStandalone drives a fresh fleet epoch by epoch with its own
// router, the way a caller outside Run does: nothing is minted ahead, so
// every RouteEpoch mints inline. With advance set, every replica runs to
// the barrier and budgets burn between epochs, as in Run. perEpoch, when
// set, is called around each RouteEpoch.
func routeStandalone(t *testing.T, cfg Config, advance bool, perEpoch func(e int, route func())) (*Fleet, *Router) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ro := NewRouter(len(cfg.Replicas), len(cfg.Tenants))
	for e, start := 0, 0.0; start < f.cfg.Horizon; e++ {
		end := math.Min(f.cfg.EpochDur*float64(e+1), f.cfg.Horizon)
		route := func() { ro.RouteEpoch(f, e, start, end) }
		if perEpoch != nil {
			perEpoch(e, route)
		} else {
			route()
		}
		if advance {
			for _, rep := range f.replicas {
				if err := rep.Advance(end); err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
			}
			f.burnBudgets(f.cfg.EpochDur)
		}
		start = end
	}
	return f, ro
}

// TestStandaloneRouteEpochMatchesRun pins that RouteEpoch works on its
// own: on a fresh fleet with a fresh router and no epoch minted ahead, it
// makes the same decisions, and mints the same arrivals, as the epochs
// inside Run, which mint each next epoch on the shard pool.
func TestStandaloneRouteEpochMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := tinyConfig(5, workers)
		ref, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		_, ro := routeStandalone(t, cfg, true, nil)
		if ro.Minted != ref.Minted {
			t.Fatalf("workers %d: standalone minted %d, Run minted %d", workers, ro.Minted, ref.Minted)
		}
		if d := ro.Digest(); d != ref.RouterDigest {
			t.Fatalf("workers %d: standalone decision log differs from Run\nstandalone:\n%.400s\nRun:\n%.400s", workers, d, ref.RouterDigest)
		}
	}
}

// TestRouteEpochWithoutAdvanceConserves routes several epochs into
// replicas that are not advanced in between, then runs them: every
// routed arrival must still reach its ledger exactly once, although the
// router reuses its per-replica runs and buffers every epoch.
func TestRouteEpochWithoutAdvanceConserves(t *testing.T) {
	f, ro := routeStandalone(t, tinyConfig(6, 1), false, nil)
	f.router = ro
	var digests []string
	for _, rep := range f.replicas {
		if err := rep.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		digests = append(digests, rep.Digest())
		for ti, rt := range rep.tenants {
			if rpt := rt.st.Coll.AuditReport(); !rpt.OK() {
				t.Fatalf("shard %d tenant %d: %v", rep.Index, ti, rpt.Err())
			}
		}
	}
	res := f.collect(len(ro.Log), digests)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Routed == 0 {
		t.Fatal("nothing routed")
	}
}

// TestRouteEpochAllocsFlatInArrivals pins the per-epoch allocation budget
// of minting plus routing: after warm-up, the allocations one RouteEpoch
// makes must not grow with the arrivals it handles. The router fills
// reused index runs and the sources reuse their epoch buffers, so 4× the
// rate costs no more allocations per epoch than 1×. The median over
// epochs discards the rare epoch whose buffer still grows.
func TestRouteEpochAllocsFlatInArrivals(t *testing.T) {
	perEpoch := func(scale float64) float64 {
		cfg := tinyConfig(9, 1)
		cfg.Horizon = 8
		for i := range cfg.Tenants {
			cfg.Tenants[i].Rate *= scale
		}
		const warm = 4
		var counts []float64
		var ms runtime.MemStats
		routeStandalone(t, cfg, true, func(e int, route func()) {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			route()
			runtime.ReadMemStats(&ms)
			if e >= warm {
				counts = append(counts, float64(ms.Mallocs-before))
			}
		})
		sort.Float64s(counts)
		return counts[len(counts)/2]
	}
	one, four := perEpoch(1), perEpoch(4)
	if four > one {
		t.Fatalf("mint+route allocations per epoch grow with arrivals: %.0f at 1x rate, %.0f at 4x", one, four)
	}
}

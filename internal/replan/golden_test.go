package replan

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

// Golden hashes of the 12-window drifting demo with the span ring,
// attribution, the flame profiler and the flight recorder attached. The
// run is deterministic, so any change to what the loop serves, when, or
// how the ledger renders it moves at least one of these. Update them only
// for a change that is meant to alter behaviour, and say so.
const (
	goldenLedgerDigest = "2b159e3543636939401016386f81ba7b0f884ebc53255f02a2cdddac0808cedf"
	goldenBundle       = "1ad1b8409c2b5bfc8687be88e10dcd49a5440055eb3d322fa1e6b7dd02b3dc6c"
	goldenFlameFolded  = "0af0fc9b3827a5fb9414cc85178331156bbc16a6ae4a03f5c8ef06765ec8cd8b"
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func TestDriftingDemoGoldenDigests(t *testing.T) {
	cfg := DriftingDemo(12, forecast.MethodARIMA, telemetry.NewRing(512))
	cfg.Attr = slo.NewAttribution(slo.DefaultTopK)
	cfg.Flame = flame.NewProfiler(0)
	rec := &slo.Recorder{}
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.OK() || !res.FlameStat.OK() || cfg.Attr.Mismatches() != 0 {
		t.Fatalf("run failed its own checks: %v, flame %+v, %d attribution mismatches",
			res.Report.Err(), res.FlameStat, cfg.Attr.Mismatches())
	}
	var bundle bytes.Buffer
	if err := rec.Trigger("golden", "determinism probe", 24.0).WriteJSON(&bundle); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"ledger digest", sha([]byte(rec.Ledger.Digest())), goldenLedgerDigest},
		{"flight-recorder bundle", sha(bundle.Bytes()), goldenBundle},
		{"flame folded", sha(cfg.Flame.Profile().Folded()), goldenFlameFolded},
	} {
		if c.got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestDriftingDemoAllocsPerRequest holds the observed loop's data plane to
// its allocation budget: the exhaustive ledger's chunked log, the shared
// batch pool, the streamed arrivals, the recycled per-batch events and the
// attribution's dense slots leave under 0.5 allocations per request,
// planning included (measured 0.452; closures per batch event and a
// map-backed attribution measured 0.952).
func TestDriftingDemoAllocsPerRequest(t *testing.T) {
	var requests int
	allocs := testing.AllocsPerRun(1, func() {
		cfg := DriftingDemo(4, forecast.MethodARIMA, telemetry.NewRing(512))
		cfg.Attr = slo.NewAttribution(slo.DefaultTopK)
		cfg.Flame = flame.NewProfiler(0)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requests = res.Report.Samples
	})
	per := allocs / float64(requests)
	t.Logf("%.0f allocs over %d requests: %.3f/request", allocs, requests, per)
	if per >= 0.5 {
		t.Fatalf("drifting demo: %.3f allocs/request, want < 0.5", per)
	}
}

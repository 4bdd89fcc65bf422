package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/flame"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/trace"
)

// Golden sha256s of the demo setting (BERT-Base DeeBERT, V100x8, bursty
// open loop, 10 virtual seconds) under each runner with the ledger, an
// unbounded tracer, the attribution and the flame profiler all attached.
// Every observer sees every lifecycle boundary, so a change to what a
// runner reports, when, or to whom moves at least one of these. Update
// them only for a change that is meant to alter behaviour, and say so.
var goldenRunners = map[string]struct{ ledger, chrome, folded, attr string }{
	"pipeline": {
		ledger: "1a0b114969497e9b4bd146ef0f37285c07012e0263e4a0ec2c82f2eb52984e5d",
		chrome: "03a63a672c18f6212a45d3412fcbe6bfb86fd15d695ea8fb8b1fb1dc0fc434b7",
		folded: "5f6d42db21ad945a3905d51a896175f7e77b84b829660facdd52a23d05e6e7da",
		attr:   "976c59966e16029094d883e1d9c01f0aadfa136b486c9d31e833f050543d1b91",
	},
	"serial": {
		ledger: "8a87525373061152d63fa1611f71ba6e5ade45cd99853a38abc2d5a94f5d5d71",
		chrome: "c701f32f5bdf1912b7491608108b2a5b270a404458587f76d8eaf2a43c777b87",
		folded: "77b325746e4061647dfe798a8e4bd290e45c654f25cabedf8f0131516f922e5c",
		attr:   "ed9f8b082172bd5730b834554f93687dc32560e848c1cc3a6087d76c471ed6c5",
	},
	"dataparallel": {
		ledger: "ddf4db1cf700b6b29f5762ffa97398b67a904c8208cdc2f68d76afbdbaa61cc6",
		chrome: "25eff187ad017f96eeeb87c42425111db4d3f86df8c455b4f486bb677c322dfd",
		folded: "98fe427097573c5bcedbef22a6b40f480a5ab569fdac66be5126345467c8a47f",
		attr:   "e0d089c2c090030b2ca884a46cbd5942a72a6a605f5abd7e83a958aa7a3bcb47",
	},
}

// Golden sha256s of the rendered audit and extension-multitenant tables.
const (
	goldenAuditTable       = "af5269c31de73cd88f86449e37f674c9f36a9480043fc38675e0b7df784e7d07"
	goldenMultiTenantTable = "806469356ec5393f187283b752247da078f15126d7c2d77490b7e926425aa734"
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// observedDemoRun replays the demo setting through the named runner with
// every observer attached.
func observedDemoRun(t *testing.T, runner string, tr *telemetry.Tracer, attr *slo.Attribution, fl *flame.Profiler) (*audit.Report, *scheduler.Collector) {
	t.Helper()
	dee := ee.NewDeeBERT(model.BERTBase(), 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 8) }
	plan, err := planE3(mk(), dee, dist, tracedBatch, defaultSLO, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := plan.Latency
	build := func(eng *sim.Engine, coll *scheduler.Collector) (scheduler.Runner, error) {
		switch runner {
		case "pipeline":
			return scheduler.NewPipeline(eng, mk(), dee, plan, coll)
		case "serial":
			return scheduler.NewSerial(eng, mk(), dee, plan, coll), nil
		}
		clus := mk()
		devs := make([]int, clus.Size())
		for i := range devs {
			devs[i] = i
		}
		return scheduler.NewDataParallel(eng, clus, dee, devs, coll)
	}
	if runner == "dataparallel" {
		est = 0.030
	}
	arr := trace.Bursty(trace.DefaultBursty(tracedAvgRate), tracedHorizon, tracedSeed)
	rep, coll, err := serving.AuditOpenLoop(build, dee.Base.NumLayers(), arr, dist, est, defaultSLO,
		tracedBatch, tracedSeed, serving.Observe{Trace: tr, Attr: attr, Flame: fl})
	if err != nil {
		t.Fatal(err)
	}
	return rep, coll
}

func TestObservedRunnerGoldens(t *testing.T) {
	for _, runner := range []string{"pipeline", "serial", "dataparallel"} {
		t.Run(runner, func(t *testing.T) {
			tr := telemetry.New()
			attr := slo.NewAttribution(slo.DefaultTopK)
			fl := flame.NewProfiler(0)
			rep, coll := observedDemoRun(t, runner, tr, attr, fl)
			if !rep.OK() || attr.Mismatches() != 0 || !fl.Verify(coll.Util).OK() {
				t.Fatalf("run failed its own checks: %v, %d attribution mismatches", rep.Err(), attr.Mismatches())
			}
			var chrome bytes.Buffer
			if err := telemetry.WriteChrome(&chrome, tr.Spans()); err != nil {
				t.Fatal(err)
			}
			dump, err := json.Marshal(attr.Dump())
			if err != nil {
				t.Fatal(err)
			}
			want := goldenRunners[runner]
			for _, c := range []struct{ name, got, want string }{
				{"ledger digest", sha([]byte(coll.Audit.Digest())), want.ledger},
				{"chrome trace", sha(chrome.Bytes()), want.chrome},
				{"flame folded", sha(fl.Profile().Folded()), want.folded},
				{"attribution dump", sha(dump), want.attr},
			} {
				if c.got != c.want {
					t.Errorf("%s sha256 = %s, want %s", c.name, c.got, c.want)
				}
			}
		})
	}
}

func TestRenderedTableGoldens(t *testing.T) {
	auditTab, _ := RunAudit()
	for _, c := range []struct {
		tab  Table
		want string
	}{
		{auditTab, goldenAuditTable},
		{ExtensionMultiTenant(), goldenMultiTenantTable},
	} {
		var buf bytes.Buffer
		c.tab.Print(&buf)
		if got := sha(buf.Bytes()); got != c.want {
			t.Errorf("%s table sha256 = %s, want %s\n%s", c.tab.ID, got, c.want, buf.String())
		}
	}
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"e3/internal/audit"
	"e3/internal/experiments"
)

// tiny shrinks every workload's horizon to a smoke-test size; small is
// the smallest size at which every workload still loses some requests,
// so every end-to-end metric is non-zero.
const (
	tiny  = 0.01
	small = 0.1
)

func TestEndToEndSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := endToEndRun(w, 1, 0, small)
			if !r.correct() {
				t.Fatalf("run failed its checks: %v", r.errs)
			}
			if r.attempted < minIterations {
				t.Errorf("attempted %d repetitions, want at least %d", r.attempted, minIterations)
			}
			if len(r.values) != len(endToEnd) {
				t.Fatalf("reported %d metrics, want %d", len(r.values), len(endToEnd))
			}
			for i, v := range r.values {
				if v.def != endToEnd[i] {
					t.Errorf("metric %d is %v, want %v", i, v.def, endToEnd[i])
				}
				if !(v.v > 0) {
					t.Errorf("%s = %v; end-to-end metrics must never be 0", v.def.name, v.v)
				}
			}
		})
	}
}

func TestTracedPassSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := tracedRun(w, 1, tiny)
			if !r.correct() {
				t.Fatalf("traced pass failed its checks: %v", r.errs)
			}
			got := map[string]bool{}
			for _, v := range r.values {
				got[v.def.name] = true
			}
			for _, d := range perLayer {
				if !got[d.name] {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
		})
	}
}

// TestDigestCheckCatchesPerturbedRun stands a traced run of another seed
// in for spans that changed the simulation: the digest check must refuse
// it, and pass a faithful traced run.
func TestDigestCheckCatchesPerturbedRun(t *testing.T) {
	digest := func(seed int64, sp *spans) string {
		t.Helper()
		inst, err := preparePaper(seed, tiny)
		if err != nil {
			t.Fatal(err)
		}
		s, err := inst.driven()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.drive(sp); err != nil {
			t.Fatal(err)
		}
		if _, err := s.audit(); err != nil {
			t.Fatal(err)
		}
		return s.digest()
	}
	untraced := digest(1, nil)
	if err := compareDigests(untraced, digest(1, newSpans())); err != nil {
		t.Fatalf("faithful traced run refused: %v", err)
	}
	if err := compareDigests(untraced, digest(2, newSpans())); err == nil {
		t.Fatal("a traced run that diverged passed the digest check")
	}
}

// TestPaperIsSimBench pins paper-9k to the experiments.DefaultSimBench
// shape: the same stack over the same horizon leaves the same ledger.
func TestPaperIsSimBench(t *testing.T) {
	cfg := experiments.DefaultSimBench()
	cfg.Seed = 3
	cfg.Horizon = paperHorizon * tiny
	want, err := experiments.RunSimBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := preparePaper(cfg.Seed, tiny)
	if err != nil {
		t.Fatal(err)
	}
	s, err := inst.driven()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.drive(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.lanes[0].pipe.Collector().Audit.Digest(); got != want.Digest {
		t.Fatal("paper-9k's ledger differs from experiments.RunSimBench's on the same config")
	}
}

// TestDigestLatencies reads latencies back out of a real ledger digest.
func TestDigestLatencies(t *testing.T) {
	l := audit.NewSampledLedger(2)
	l.Arrived(2, 1.0)
	l.Queued(2, 1.0)
	l.Dispatched(2, 1.01, 0, 3)
	l.Completed(2, 1.25, 4)
	l.Arrived(4, 2.0)
	l.Dropped(4, 2.5, audit.ReasonAdmission)
	l.Arrived(5, 3.0) // untracked at stride 2
	l.Completed(5, 3.5, 1)
	lat := digestLatencies("tenant x\n" + l.Digest())
	if len(lat) != 1 || lat[0] != 0.25 {
		t.Fatalf("latencies %v, want [0.25]", lat)
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", paper9k, "--trace", "2"},
		{"--workload", paper9k, "--seconds", "-1"},
	} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json, which benchmark runners
// read, in step with the tables the program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	var layers []metricDef
	for _, d := range perLayer {
		layers = append(layers, d.metricDef)
	}
	check("per_layer", b.PerLayer, layers, false)
}

package bench_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"e3/internal/bench"
)

func TestWrapRoundTrip(t *testing.T) {
	type payload struct {
		Throughput float64 `json:"throughput_rps"`
	}
	env, err := bench.Wrap("traced-demo", 424242,
		&bench.TraceParams{HorizonS: 10, AvgRate: 2000, Batch: 8},
		map[string]float64{"throughput_rps": 1234.5},
		payload{Throughput: 1234.5})
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := bench.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Schema != bench.CurrentSchema || got.Kind != "traced-demo" || got.Seed != 424242 {
		t.Fatalf("envelope fields lost: %+v", got)
	}
	var p payload
	if err := json.Unmarshal(got.Payload, &p); err != nil {
		t.Fatalf("payload: %v", err)
	}
	if p.Throughput != 1234.5 {
		t.Fatalf("payload lost: %+v", p)
	}
}

func TestDecodeRejectsNewerSchema(t *testing.T) {
	if _, err := bench.Decode([]byte(`{"schema": 99}`)); err == nil {
		t.Fatal("want error for schema 99")
	}
}

// TestDecodeRejectsUnversionedDocuments pins the strict reader: a
// document without a schema key, or with a schema below 1, is an error.
func TestDecodeRejectsUnversionedDocuments(t *testing.T) {
	for _, doc := range []string{
		`{"schema": 0, "kind": "benchmark"}`,
		`{"schema": -1}`,
		`{"schema": null}`,
		`{"kind": "benchmark", "metrics": {"goodput_rps": 1}}`,
		`{}`,
		`[1, 2]`,
		`not json`,
	} {
		if _, err := bench.Decode([]byte(doc)); err == nil {
			t.Errorf("Decode(%s) accepted a document outside schema [1, %d]", doc, bench.CurrentSchema)
		}
	}
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// baseline check reads: the workloads and the metric names each pass
// must report.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// baselinePath names the checked-in report of one workload's pass: the
// JSON after "report " on the line `bash _benchmark/run.sh --workload W
// --seed 1 --seconds 25 --trace T` prints.
func baselinePath(workload string, trace int) string {
	return filepath.Join("testdata", "baseline", fmt.Sprintf("%s-trace%d.json", workload, trace))
}

// TestDecodeAllExistingBenchArtifacts decodes the checked-in baseline:
// one report per workload BENCHMARK.json declares and per pass. Each must
// be a schema-1 envelope of the pass's kind, carry every metric
// BENCHMARK.json lists for that pass, and name its workload and host.
func TestDecodeAllExistingBenchArtifacts(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", spec)
	}
	passes := []struct {
		trace int
		kind  string
		names []string
	}{{trace: 0, kind: "benchmark"}, {trace: 1, kind: "benchmark-traced"}}
	for _, m := range spec.EndToEnd {
		passes[0].names = append(passes[0].names, m.Name)
	}
	for _, m := range spec.PerLayer {
		passes[1].names = append(passes[1].names, m.Name)
	}
	for _, w := range spec.Workloads {
		for _, p := range passes {
			path := baselinePath(w.Name, p.trace)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			rep, err := bench.Decode(data)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			if rep.Schema != 1 || rep.Kind != p.kind {
				t.Errorf("%s: schema %d kind %q, want schema 1 kind %q", path, rep.Schema, rep.Kind, p.kind)
			}
			for _, name := range p.names {
				if _, ok := rep.Metrics[name]; !ok {
					t.Errorf("%s: metric %s missing", path, name)
				}
			}
			var host struct {
				Workload   string `json:"workload"`
				GoMaxProcs int    `json:"gomaxprocs"`
				NProc      int    `json:"nproc"`
				GoVersion  string `json:"go_version"`
			}
			if err := json.Unmarshal(rep.Payload, &host); err != nil {
				t.Errorf("%s: payload: %v", path, err)
			} else if host.Workload != w.Name || host.GoMaxProcs < 1 || host.NProc < 1 || host.GoVersion == "" {
				t.Errorf("%s: payload does not name workload %s and its host: %+v", path, w.Name, host)
			}
		}
	}
}

// FuzzDecode feeds Decode arbitrary bytes. It must never panic, and a
// report it accepts must re-encode to a fixed point: encoding it,
// decoding that and encoding again gives the same bytes.
func FuzzDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "baseline", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := bench.Decode(data)
		if err != nil {
			return
		}
		if rep.Schema < 1 || rep.Schema > bench.CurrentSchema {
			t.Fatalf("accepted schema %d", rep.Schema)
		}
		once, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		again, err := bench.Decode(once)
		if err != nil {
			t.Fatalf("re-encoded report rejected: %v\n%s", err, once)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}

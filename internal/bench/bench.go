// Package bench defines the envelope of the benchmark's machine-readable
// report: the `report {...}` line bash _benchmark/run.sh prints. Wrap
// puts a kind-specific payload in a Report carrying the schema version,
// the workload seed, the trace parameters, and a flat headline-metrics
// map, so tooling can index reports without knowing every payload shape.
// Decode reads one back and rejects anything that is not a versioned
// envelope. The checked-in baseline reports live under testdata/baseline.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
)

// CurrentSchema is the envelope version this package writes.
const CurrentSchema = 1

// TraceParams records the workload that produced a report.
type TraceParams struct {
	HorizonS   float64 `json:"horizon_s,omitempty"`
	AvgRate    float64 `json:"avg_rate,omitempty"`
	Batch      int     `json:"batch,omitempty"`
	Windows    int     `json:"windows,omitempty"`
	WindowDurS float64 `json:"window_dur_s,omitempty"`
}

// Report is the envelope. Payload holds the kind-specific body verbatim.
type Report struct {
	// Schema is the envelope version, in [1, CurrentSchema].
	Schema int `json:"schema"`
	// Tool and Kind identify the emitter and the report family
	// ("benchmark" or "benchmark-traced").
	Tool string `json:"tool,omitempty"`
	Kind string `json:"kind,omitempty"`
	// Seed is the workload seed the run used (0 when not seed-driven).
	Seed  int64        `json:"seed,omitempty"`
	Trace *TraceParams `json:"trace_params,omitempty"`
	// Metrics is the flat headline-scalar index (throughput, p99, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`

	Payload json.RawMessage `json:"payload,omitempty"`
}

// Wrap builds an envelope around a payload value.
func Wrap(kind string, seed int64, tp *TraceParams, metrics map[string]float64, payload any) (*Report, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("bench: encode %s payload: %w", kind, err)
	}
	return &Report{
		Schema: CurrentSchema, Tool: "e3-bench", Kind: kind,
		Seed: seed, Trace: tp, Metrics: metrics, Payload: raw,
	}, nil
}

// Decode reads an envelope. A document without a "schema" key, or with
// a schema outside [1, CurrentSchema], is an error.
func Decode(data []byte) (*Report, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("bench: not a JSON object: %w", err)
	}
	if _, ok := probe["schema"]; !ok {
		return nil, errors.New("bench: document has no schema key")
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.Schema < 1 || rep.Schema > CurrentSchema {
		return nil, fmt.Errorf("bench: envelope schema %d outside supported [1, %d]", rep.Schema, CurrentSchema)
	}
	return &rep, nil
}

// Command e3-benchmark is the repository's benchmark: one command that
// runs a workload through the E3 serving simulator via its public
// packages, checks every run's output, and prints each metric by name.
//
//	bash _benchmark/run.sh --workload paper-9k --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it sets the workload up several times (setup_s is the
// median), then repeats the seeded workload for --seconds and reports
// the end-to-end metrics: host throughput and cost as medians over the
// repetitions, and the virtual-time results, which must be identical in
// every repetition. With --trace 1 it runs the traced pass instead: spans
// around the benchmark's own calls into each layer, replays of single
// layers on the workload's inputs, and the per-layer metrics, each with
// its prediction (see metrics.go).
//
// Every line but the last is for people and for diffing two outputs: a
// "metric" or "layer" line per (workload, metric) with its unit and time
// base, a "requests" line with requests sent, served and failed, "span"
// lines with self and child time per layer. The last line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// 1 when any check failed and 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"e3/internal/bench"
)

// A run builds its workload at least minSetups times and for at least
// setupTime, at most maxSetups times; setup_s is the median. Some set-ups
// take well under a millisecond, so a handful would not give a steady
// median.
const (
	minSetups = 5
	maxSetups = 10000
	setupTime = 500 * time.Millisecond
)

// minIterations is the fewest measured repetitions a run makes, however
// short --seconds is.
const minIterations = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e3-benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 15, "how long the measured repetitions run")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e3-benchmark: need --workload (%s), --seconds >= 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if runtime.GOMAXPROCS(0) > nproc() {
		runtime.GOMAXPROCS(nproc())
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		w.name, *seed, *traced, runtime.GOMAXPROCS(0), nproc(), runtime.Version())
	fmt.Fprintf(stdout, "# why: %s\n", w.why)

	var r *report
	if *traced == 1 {
		r = tracedRun(w, *seed, 1)
	} else {
		r = endToEndRun(w, *seed, time.Duration(*seconds)*time.Second, 1)
	}
	r.print(stdout, *seed, *traced == 1)
	if !r.correct() {
		return 1
	}
	return 0
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// value is one reported metric.
type value struct {
	def metricDef
	v   float64
	// n is the sample count behind v (repetitions, or latencies); 0 when
	// v is one measurement.
	n    int
	note string
}

// report is one run's result.
type report struct {
	workload  string
	values    []value
	attempted int
	errs      []error
	// out is the virtual-time outcome (untraced runs).
	out *outcome
	// extra holds the traced pass's span table and digest lines.
	extra []string
}

func (r *report) correct() bool { return len(r.errs) == 0 && r.attempted > 0 }

func (r *report) fail(err error) { r.errs = append(r.errs, err) }

// endToEndRun sets the workload up repeatedly, back to back, then repeats
// it for the given duration (and at least minIterations times), each
// repetition after a full collection. The first failed check ends the run.
func endToEndRun(w workloadDef, seed int64, dur time.Duration, scale float64) *report {
	r := &report{workload: w.name}
	var inst instance
	var setups, setupAllocs []float64
	runtime.GC()
	for t0 := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(t0) < setupTime); {
		c, err := cost(func() error {
			var err error
			inst, err = w.prepare(seed, scale)
			return err
		})
		if err != nil {
			r.fail(fmt.Errorf("set-up: %w", err))
			return r
		}
		setups = append(setups, c.wall.Seconds())
		setupAllocs = append(setupAllocs, float64(c.mallocs))
	}
	setup, setupMallocs := median(setups), median(setupAllocs)

	var rates, allocs []float64
	start := time.Now()
	for r.attempted < minIterations || time.Since(start) < dur {
		out, cost, err := inst.run()
		r.attempted++
		if err != nil {
			r.fail(fmt.Errorf("repetition %d: %w", r.attempted, err))
			return r
		}
		if r.out == nil {
			r.out = out
		} else if got, want := out.fingerprint(), r.out.fingerprint(); got != want {
			r.fail(fmt.Errorf("repetition %d: virtual-time results differ from the first repetition of the same seed:\n  %s\n  %s", r.attempted, got, want))
			return r
		}
		wall, mallocs := cost.wall.Seconds(), float64(cost.mallocs)
		if out.setupIncluded {
			wall -= setup
			mallocs -= setupMallocs
		}
		rates = append(rates, float64(out.sent)/wall)
		allocs = append(allocs, mallocs/float64(out.sent))
	}
	o := r.out
	vals := map[string]value{
		"sim_requests_per_s": {v: median(rates), n: len(rates)},
		"allocs_per_request": {v: median(allocs), n: len(allocs)},
		"setup_s":            {v: setup, n: len(setups)},
		"peak_rss_mib":       {v: peakRSSMiB()},
		"goodput_rps":        {v: o.goodput, n: o.served},
		"failed_frac":        {v: float64(o.failed()) / float64(o.sent), n: o.sent},
		"latency_p50_ms":     {v: o.p50 * 1e3, n: o.latN},
		"latency_p99_ms":     {v: o.p99 * 1e3, n: o.latN},
	}
	for _, d := range endToEnd {
		v := vals[d.name]
		v.def = d
		r.values = append(r.values, v)
	}
	r.finite()
	return r
}

// tracedRun runs the traced pass.
func tracedRun(w workloadDef, seed int64, scale float64) *report {
	r := &report{workload: w.name}
	inst, err := w.prepare(seed, scale)
	if err != nil {
		r.fail(fmt.Errorf("set-up: %w", err))
		return r
	}
	tp := tracedPass(inst, seed, scale)
	r.attempted, r.out = tp.attempted, tp.out
	r.errs = append(r.errs, tp.errs...)
	for _, d := range perLayer {
		v, ok := tp.vals[d.name]
		if !ok {
			if len(tp.errs) == 0 {
				r.fail(fmt.Errorf("per-layer metric %s was not measured", d.name))
			}
			continue
		}
		r.values = append(r.values, value{def: d.metricDef, v: v, note: strings.TrimSpace(d.prediction() + " " + tp.notes[d.name])})
	}
	sp := tp.spans
	run := sp.total[spanRun]
	for l := layer(0); l < numSpans; l++ {
		r.extra = append(r.extra, fmt.Sprintf("span %s %s calls=%d total_ms=%.3f self_ms=%.3f child_ms=%.3f self_frac=%.4f",
			w.name, spanNames[l], sp.calls[l], ms(sp.total[l]), ms(sp.self(l)), ms(sp.child[l]), ratio(float64(sp.self(l)), float64(run))))
	}
	// The run span's self time is the part of the traced runs no layer
	// span covers.
	r.extra = append(r.extra, fmt.Sprintf("remainder %s layers-vs-end-to-end end_to_end_ms=%.3f layers_ms=%.3f unexplained_ms=%.3f unexplained_frac=%.4f",
		w.name, ms(run), ms(sp.child[spanRun]), ms(sp.self(spanRun)), tp.vals["layers.unexplained_frac"]))
	r.extra = append(r.extra, fmt.Sprintf("tracing %s overhead_frac=%.4f untraced_s=%.3f traced_s=%.3f",
		w.name, tp.vals["tracing.overhead_frac"], tp.untracedWall, tp.tracedWall))
	r.finite()
	for i, d := range tp.digests {
		r.extra = append(r.extra, fmt.Sprintf("digest %s pair=%d untraced=%s traced=%s equal=%v", w.name, i, d[0], d[1], d[0] == d[1]))
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// print writes the human lines, the bench.Report envelope, and the final
// result line.
func (r *report) print(w io.Writer, seed int64, traced bool) {
	kind := "metric"
	if traced {
		kind = "layer"
	}
	for _, v := range r.values {
		line := fmt.Sprintf("%s %s %s %v %s %s", kind, r.workload, v.def.name, v.v, v.def.unit, v.def.base)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		if v.note != "" {
			line += " " + v.note
		}
		fmt.Fprintln(w, line)
	}
	if o := r.out; o != nil {
		fmt.Fprintf(w, "requests %s sent=%d served=%d failed=%d late=%d dropped=%d door_shed=%d per_repetition=true\n",
			r.workload, o.sent, o.served, o.failed(), o.late, o.dropped, o.doorShed)
	}
	for _, line := range r.extra {
		fmt.Fprintln(w, line)
	}
	for _, err := range r.errs {
		fmt.Fprintf(w, "check-failed %s %v\n", r.workload, err)
	}

	flat := map[string]float64{}
	metrics := map[string]resultMetric{}
	for _, v := range r.values {
		flat[v.def.name] = v.v
		metrics[v.def.name] = resultMetric{Value: v.v, Unit: v.def.unit}
	}
	kindName := "benchmark"
	if traced {
		kindName = "benchmark-traced"
	}
	env, err := bench.Wrap(kindName, seed, nil, flat, envelopePayload{
		Workload: r.workload, GoMaxProcs: runtime.GOMAXPROCS(0), NProc: nproc(), GoVersion: runtime.Version(),
	})
	if err != nil {
		panic(err) // the payload is plain fields and always encodes
	}
	fmt.Fprintf(w, "report %s\n", mustJSON(env))

	failed := len(r.errs)
	if failed > r.attempted {
		failed = r.attempted
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted, failed = 1, 1
	}
	fmt.Fprintf(w, "%s\n", mustJSON(result{Correct: r.correct(), Attempted: attempted, Failed: failed, Metrics: metrics}))
}

// mustJSON encodes a value that cannot fail to encode: plain fields, and
// floats that finite() has already vetted.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// finite fails the run on a metric that is not a finite number, and
// drops that metric, which JSON cannot carry.
func (r *report) finite() {
	kept := r.values[:0]
	for _, v := range r.values {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			r.fail(fmt.Errorf("metric %s is %v", v.def.name, v.v))
			continue
		}
		kept = append(kept, v)
	}
	r.values = kept
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// envelopePayload stamps the report with the host it ran on.
type envelopePayload struct {
	Workload   string `json:"workload"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
}

package main

import "strings"

// Time bases. Host numbers are what the simulator costs on this machine;
// virtual numbers are what the simulated system did, and repeat exactly
// for a seed.
const (
	host    = "host"
	virtual = "virtual"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// names and units (a test holds the two in step).
type metricDef struct {
	name, unit, base string
}

// endToEnd are the numbers a user of the simulator sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"sim_requests_per_s", "1/s", host},
	{"allocs_per_request", "allocs", host},
	{"setup_s", "s", host},
	{"peak_rss_mib", "MiB", host},
	{"goodput_rps", "1/s", virtual},
	{"failed_frac", "frac", virtual},
	{"latency_p50_ms", "ms", virtual},
	{"latency_p99_ms", "ms", virtual},
}

// layerDef is one per-layer metric of the traced pass together with its
// prediction: the end-to-end metric a change to this layer should move,
// and the workloads on which it should move it. On every other workload
// the prediction is no change.
type layerDef struct {
	metricDef
	moves []effect
}

// effect predicts that a layer moves metric on the named workloads.
type effect struct {
	metric string
	on     []string
}

func moves(metric string, on ...string) []effect { return []effect{{metric, on}} }

const allWorkloads = "all"

var perLayer = []layerDef{
	{metricDef{"trace.next_ns", "ns", host}, moves("sim_requests_per_s", paper9k)},
	{metricDef{"workload.next_ns", "ns", host}, moves("sim_requests_per_s", paper9k)},
	{metricDef{"workload.pool_hit_frac", "frac", host}, moves("allocs_per_request", paper9k)},
	{metricDef{"serving.arrive_ns", "ns", host}, moves("sim_requests_per_s", paper9k)},
	{metricDef{"serving.batch_size_mean", "samples", virtual}, moves("goodput_rps", allWorkloads)},
	{metricDef{"serving.drop_frac.admission", "frac", virtual}, moves("failed_frac", paper9k)},
	{metricDef{"serving.drop_frac.sla-flush", "frac", virtual}, moves("failed_frac", paper9k)},
	{metricDef{"scheduler.drop_frac.stale-shed", "frac", virtual}, moves("failed_frac", paper9k)},
	{metricDef{"scheduler.ingest_ns_per_sample", "ns", host}, moves("sim_requests_per_s", paper9k)},
	{metricDef{"sim.events_per_request", "events", virtual}, moves("sim_requests_per_s", allWorkloads)},
	{metricDef{"sim.events_per_s", "1/s", host}, moves("sim_requests_per_s", allWorkloads)},
	{metricDef{"sim.step_ns_per_event", "ns", host}, moves("sim_requests_per_s", paper9k)},
	{metricDef{"sim.heap_ns_per_event", "ns", host}, moves("sim_requests_per_s", paper9k)},
	{metricDef{"ee.exit_ns", "ns", host}, moves("sim_requests_per_s", fleetZoo, paper9k)},
	{metricDef{"ee.mean_exit_layer", "layers", virtual}, moves("goodput_rps", allWorkloads)},
	{metricDef{"exec.split_ns_per_sample", "ns", host}, moves("sim_requests_per_s", paper9k)},
	{metricDef{"metrics.summarize_ms", "ms", host}, moves("sim_requests_per_s", paper9k)},
	{metricDef{"audit.report_ms", "ms", host}, moves("sim_requests_per_s", replanObserved)},
	{metricDef{"telemetry.marginal_frac", "frac", host}, moves("sim_requests_per_s", replanObserved)},
	{metricDef{"slo.marginal_frac", "frac", host}, moves("sim_requests_per_s", replanObserved)},
	{metricDef{"flame.marginal_frac", "frac", host}, moves("sim_requests_per_s", replanObserved)},
	{metricDef{"gc.cpu_frac", "frac", host}, moves("sim_requests_per_s", replanObserved)},
	{metricDef{"gc.cycles_per_mrequest", "count", host}, moves("sim_requests_per_s", replanObserved)},
	{metricDef{"optimizer.search_ms", "ms", host}, []effect{{"setup_s", []string{paper9k}}, {"sim_requests_per_s", []string{replanObserved}}}},
	{metricDef{"replan.searches", "count", virtual}, moves("sim_requests_per_s", replanObserved)},
	{metricDef{"replan.cache_hit_frac", "frac", virtual}, moves("sim_requests_per_s", replanObserved)},
	{metricDef{"multi.plan_ms", "ms", host}, moves("setup_s", fleetZoo)},
	{metricDef{"fleet.route_ns_per_arrival", "ns", host}, moves("sim_requests_per_s", fleetZoo)},
	{metricDef{"fleet.cpu_per_wall", "ratio", host}, moves("sim_requests_per_s", fleetZoo)},
	{metricDef{"fleet.speedup", "x", host}, moves("sim_requests_per_s", fleetZoo)},
	{metricDef{"fleet.serial_frac", "frac", host}, moves("sim_requests_per_s", fleetZoo)},
	{metricDef{"fleet.door_shed_frac", "frac", virtual}, moves("failed_frac", fleetZoo)},
	// The traced pass's own accounting: the share of the traced driven
	// run no layer span covers, and what the spans cost.
	{metricDef{"layers.unexplained_frac", "frac", host}, nil},
	{metricDef{"tracing.overhead_frac", "frac", host}, nil},
}

// prediction renders the metric's prediction: the end-to-end metric it
// should move on which workloads, and the workloads where it should not
// move anything.
func (d layerDef) prediction() string {
	if len(d.moves) == 0 {
		return "moves=none"
	}
	var parts, flat []string
	for _, e := range d.moves {
		parts = append(parts, e.metric+"@"+strings.Join(e.on, ","))
	}
	for _, w := range workloads {
		if !d.loads(w.name) {
			flat = append(flat, w.name)
		}
	}
	if len(flat) == 0 {
		flat = []string{"none"}
	}
	return "moves=" + strings.Join(parts, ";") + " flat=" + strings.Join(flat, ",")
}

// loads reports whether the prediction names workload w.
func (d layerDef) loads(w string) bool {
	for _, e := range d.moves {
		for _, o := range e.on {
			if o == w || o == allWorkloads {
				return true
			}
		}
	}
	return false
}

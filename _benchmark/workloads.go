package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/flame"
	"e3/internal/fleet"
	"e3/internal/forecast"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/multi"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/replan"
	"e3/internal/scheduler"
	"e3/internal/sim"
	"e3/internal/slo"
	"e3/internal/telemetry"
	"e3/internal/trace"
	"e3/internal/workload"
)

const (
	paper9k        = "paper-9k"
	replanObserved = "replan-observed"
	fleetZoo       = "fleet-zoo"
)

// The serving constants every E3 experiment uses: a 100 ms SLO, 20% of
// it held back as slack, batches of 8.
const (
	sloS  = 0.100
	slack = 0.2
	batch = 8
)

// workloadDef is one traffic mix. prepare builds the model, cluster and
// plan; the benchmark times it as setup_s. scale shrinks every horizon
// (1 in real runs; tests use a small fraction).
type workloadDef struct {
	name, why string
	prepare   func(seed int64, scale float64) (instance, error)
}

// Why each workload is in the benchmark: each loads layers the others
// leave idle, so a change to one layer moves one workload and leaves the
// others as its control.
var workloads = []workloadDef{
	{paper9k, "the paper's production rate on the DefaultSimBench shape; the data plane does nearly all the work and load shedding drops over half the arrivals", preparePaper},
	{replanObserved, "drifting mix near capacity on 29 mixed GPUs with every observer, the exhaustive ledger and re-planning, which paper-9k never loads", prepareReplan},
	{fleetZoo, "8-replica fleet serving three model families past its planned capacity: router, shard runner and multi-tenant planning", prepareFleet},
}

// instance is a prepared workload.
type instance interface {
	// run executes one untraced iteration and returns its outcome and the
	// host cost of the simulation alone.
	run() (*outcome, hostCost, error)
	// driven builds the serving data plane the traced pass drives with its
	// own spans: the workload itself for paper-9k, and a replay of the
	// workload's data plane where the program runs it out of reach.
	driven() (*stack, error)
	// layers measures the workload's remaining per-layer metrics.
	layers(tp *tracePass) error
}

// outcome is what one iteration did in virtual time. A seed fixes it.
type outcome struct {
	sent, served, late, dropped, doorShed int
	// goodput is requests served within SLO per virtual second.
	goodput float64
	// p50 and p99 are completion latencies in virtual seconds over latN
	// completions.
	p50, p99 float64
	latN     int
	digest   string
	// setupIncluded marks a run whose host cost includes the set-up (the
	// fleet builds itself inside fleet.Run).
	setupIncluded bool
}

func (o *outcome) failed() int { return o.late + o.dropped + o.doorShed }

// fingerprint is everything the iteration did in virtual time; it must
// repeat exactly for a seed.
func (o *outcome) fingerprint() string {
	return fmt.Sprintf("sent=%d served=%d late=%d dropped=%d door=%d goodput=%v p50=%v p99=%v n=%d digest=%s",
		o.sent, o.served, o.late, o.dropped, o.doorShed, o.goodput, o.p50, o.p99, o.latN, o.digest)
}

// check verifies the request accounting closes: every request sent was
// served, served late, dropped or shed at the door.
func (o *outcome) check() error {
	if o.sent <= 0 {
		return fmt.Errorf("no requests sent")
	}
	if got := o.served + o.failed(); got != o.sent {
		return fmt.Errorf("%d requests sent but %d accounted for", o.sent, got)
	}
	return nil
}

// quantiles returns the p50 and p99 of a latency sample, nearest rank.
func quantiles(lat []float64) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Float64s(lat)
	at := func(q float64) float64 { return lat[int(math.Ceil(q*float64(len(lat))))-1] }
	return at(0.50), at(0.99)
}

// planConfig is the planning problem of a single-model workload, as the
// experiments pose it.
func planConfig(m *ee.EEModel, prof profile.Batch, b int, clus *cluster.Cluster, slo float64) optimizer.Config {
	return optimizer.Config{
		Model: m, Profile: prof, Batch: b, Cluster: clus,
		SLO: slo, SlackFrac: slack, MinExitFrac: optimizer.DefaultMinExitFrac,
		Pipelining: true, ModelParallel: true,
	}
}

// ---- paper-9k --------------------------------------------------------------

// paper-9k is experiments.DefaultSimBench cut to a horizon that fits a
// run: Poisson arrivals at 9000 req/s, BERT-Base/DeeBERT on 8 V100s,
// pooled batches and a ledger that details every 1000th request.
const (
	paperRate        = 9000
	paperHorizon     = 60 // virtual seconds per repetition
	paperGPUs        = 8
	paperAuditStride = 1000
)

type paperRun struct {
	seed    int64
	horizon float64
	model   *ee.EEModel
	clus    *cluster.Cluster
	dist    workload.Dist
	planCfg optimizer.Config
	plan    optimizer.Plan
}

func preparePaper(seed int64, scale float64) (instance, error) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	dist := workload.Mix(0.8)
	clus := cluster.Homogeneous(gpu.V100, paperGPUs)
	cfg := planConfig(m, profile.FromDist(m, dist, 8000, 1), batch, clus, sloS)
	plan, err := optimizer.MaximizeGoodput(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: plan: %w", paper9k, err)
	}
	return &paperRun{seed: seed, horizon: paperHorizon * scale, model: m, clus: clus, dist: dist, planCfg: cfg, plan: plan}, nil
}

func (p *paperRun) driven() (*stack, error) {
	eng := sim.NewEngine()
	eng.SetEventLimit(uint64(paperRate*p.horizon)*8 + 1_000_000)
	coll := scheduler.NewCollector(p.model.Base.NumLayers(), sloS, 0)
	coll.Audit = audit.NewSampledLedger(paperAuditStride)
	pipe, err := scheduler.NewPipeline(eng, p.clus, p.model, p.plan, coll)
	if err != nil {
		return nil, err
	}
	pool := workload.NewBatchPool()
	pipe.SetPool(pool)
	gen := workload.NewGenerator(p.dist, p.seed)
	gen.SetAudit(coll.Audit)
	return &stack{eng: eng, pool: pool, lanes: []*lane{{
		stream: trace.NewPoissonStream(paperRate, p.horizon, p.seed), gen: gen, dist: p.dist,
		slo: sloS, batch: batch, model: p.model, plan: p.plan, pipe: pipe,
	}}}, nil
}

func (p *paperRun) run() (*outcome, hostCost, error) {
	s, err := p.driven()
	if err != nil {
		return nil, hostCost{}, err
	}
	cost, err := measure(func() error { return s.drive(nil) })
	if err != nil {
		return nil, cost, err
	}
	if _, err := s.audit(); err != nil {
		return nil, cost, err
	}
	c := s.lanes[0].pipe.Collector()
	o := &outcome{
		sent: s.arrivals(), served: c.Good.Served, late: c.Violations, dropped: c.Dropped,
		goodput: c.Good.Goodput(),
		p50:     c.Lat.Quantile(0.5), p99: c.Lat.Quantile(0.99), latN: c.Lat.Count(),
		digest: s.digest(),
	}
	return o, cost, o.check()
}

func (p *paperRun) layers(tp *tracePass) error {
	tp.timeMedian("optimizer.search_ms", func() error { _, err := optimizer.MaximizeGoodput(p.planCfg); return err })
	tenant := multi.Tenant{Name: paper9k, Model: p.model, Dist: p.dist, Rate: paperRate, SLO: sloS, Batch: batch}
	tp.timeMedian("multi.plan_ms", func() error { _, err := planWithBackoff(p.clus, []multi.Tenant{tenant}); return err })
	tp.absent("telemetry.marginal_frac", "slo.marginal_frac", "flame.marginal_frac", "replan.searches", "replan.cache_hit_frac")
	return fleetLayers(tp, oneReplicaFleet(tenant, p.clus, p.seed, p.horizon/paperHorizon))
}

// ---- replan-observed -------------------------------------------------------

// replan-observed is replan.DriftingDemo (easy share drifting 0.9 → 0.3)
// moved onto the 29-GPU Figure 13 mix at a rate about 1.3× what its plans
// sustain, with the span ring, latency attribution, the flame profiler
// and the flight recorder attached, and the exhaustive ledger.
const (
	replanRate      = 12000
	replanWindows   = 12
	replanWindowDur = 3.0 // virtual seconds
	// replayWindows is how many windows of the opening mix the traced
	// pass's replay of the data plane serves under the set-up plan.
	replayWindows = 4
	ringSpans     = 4096
)

// openingMix is DriftingDemo's first-window workload (easy share 0.9).
var openingMix = workload.Mix(0.9)

type replanRun struct {
	seed      int64
	windowDur float64
	model     *ee.EEModel
	clus      *cluster.Cluster
	planCfg   optimizer.Config
	plan      optimizer.Plan
}

// observers selects which of the three virtual-time observers a run
// attaches.
type observers struct{ telemetry, attribution, flame bool }

var allObservers = observers{true, true, true}

func prepareReplan(seed int64, scale float64) (instance, error) {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	clus := cluster.PaperHeterogeneous()
	// Set-up plans for the opening window's mix, profiled as the other
	// workloads profile theirs; the traced pass's replay serves this plan.
	cfg := planConfig(m, profile.FromDist(m, openingMix, 8000, 1), batch, clus, sloS)
	plan, err := optimizer.MaximizeGoodput(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: plan: %w", replanObserved, err)
	}
	return &replanRun{seed: seed, windowDur: replanWindowDur * scale, model: m, clus: clus, planCfg: cfg, plan: plan}, nil
}

func (r *replanRun) config(o observers) replan.Config {
	cfg := replan.DriftingDemo(replanWindows, forecast.MethodARIMA, nil)
	cfg.Model, cfg.Cluster = r.model, r.clus
	cfg.AvgRate = replanRate
	cfg.WindowDur = r.windowDur
	cfg.Seed = r.seed
	if o.telemetry {
		cfg.Tracer = telemetry.NewRing(ringSpans)
	}
	if o.attribution {
		cfg.Attr = slo.NewAttribution(slo.DefaultTopK)
	}
	if o.flame {
		cfg.Flame = flame.NewProfiler(0)
	}
	cfg.Recorder = &slo.Recorder{}
	return cfg
}

func (r *replanRun) run() (*outcome, hostCost, error) {
	o, cost, _, err := r.runWith(allObservers)
	return o, cost, err
}

// runWith runs the replan loop with the chosen observers and checks it:
// the conservation audit (with every attached observer reconciled into
// it), zero flame residual and zero attribution mismatches.
func (r *replanRun) runWith(obs observers) (*outcome, hostCost, *replan.Result, error) {
	cfg := r.config(obs)
	var res *replan.Result
	cost, err := measure(func() error {
		var err error
		res, err = replan.Run(cfg)
		return err
	})
	if err != nil {
		return nil, cost, nil, err
	}
	if !res.Report.OK() {
		return nil, cost, nil, res.Report.Err()
	}
	if cfg.Flame != nil && !res.FlameStat.OK() {
		return nil, cost, nil, fmt.Errorf("flame residual %d ns", res.FlameStat.Residual)
	}
	if cfg.Attr != nil && cfg.Attr.Mismatches() != 0 {
		return nil, cost, nil, fmt.Errorf("%d attribution mismatches", cfg.Attr.Mismatches())
	}
	o := &outcome{}
	for _, w := range res.Windows {
		o.served += w.Served
		o.late += w.Violations
		o.dropped += w.Dropped
	}
	o.goodput = float64(o.served) / (float64(len(res.Windows)) * cfg.WindowDur)
	var lat []float64
	o.sent, lat, o.digest = exhaustiveLedger(cfg.Recorder.Ledger)
	o.p50, o.p99 = quantiles(lat)
	o.latN = len(lat)
	return o, cost, res, o.check()
}

// exhaustiveLedger walks every sample of an exhaustive ledger (the
// generator numbers them 1…n): it returns the arrival count, every
// completion latency, and a hash of every event.
func exhaustiveLedger(l *audit.Ledger) (arrived int, lat []float64, digest string) {
	arrived, _, _ = l.Totals()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for id := int64(1); id <= int64(arrived); id++ {
		start := math.NaN()
		for _, e := range l.Events(id) {
			put(uint64(id))
			put(uint64(e.Kind))
			put(math.Float64bits(e.At))
			put(uint64(e.Stage)<<32 | uint64(e.Instance))
			put(uint64(e.ExitLayer))
			h.Write([]byte(e.Reason))
			switch e.Kind {
			case audit.KindArrived:
				start = e.At
			case audit.KindCompleted:
				lat = append(lat, e.At-start)
			}
		}
	}
	fmt.Fprintf(h, "%d", l.Samples())
	return arrived, lat, hex.EncodeToString(h.Sum(nil))[:16]
}

// driven replays the replan loop's data plane: the set-up plan serving
// the opening mix for replayWindows windows, with the loop's exhaustive
// ledger and all three observers attached.
func (r *replanRun) driven() (*stack, error) {
	horizon := replayWindows * r.windowDur
	eng := sim.NewEngine()
	eng.SetEventLimit(uint64(replanRate*horizon)*8 + 1_000_000)
	coll := scheduler.NewCollector(r.model.Base.NumLayers(), sloS, 0)
	coll.Audit = audit.NewLedger()
	coll.Trace = telemetry.NewRing(ringSpans)
	coll.Attr = slo.NewAttribution(slo.DefaultTopK)
	coll.Flame = flame.NewProfiler(0)
	pipe, err := scheduler.NewPipeline(eng, r.clus, r.model, r.plan, coll)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(openingMix, r.seed)
	gen.SetAudit(coll.Audit)
	gen.SetTrace(coll.Trace)
	s := &stack{eng: eng, lanes: []*lane{{
		stream: trace.NewPoissonStream(replanRate, horizon, r.seed), gen: gen, dist: openingMix,
		slo: sloS, batch: r.plan.Batch, model: r.model, plan: r.plan, pipe: pipe,
	}}}
	s.finish = func(rep *audit.Report) error {
		coll.Flame.CloseAt(eng.Now())
		coll.Trace.Reconcile(rep)
		coll.Attr.Reconcile(rep)
		if st := coll.Flame.Reconcile(rep, coll.Util); !st.OK() {
			return fmt.Errorf("flame residual %d ns", st.Residual)
		}
		if n := coll.Attr.Mismatches(); n != 0 {
			return fmt.Errorf("%d attribution mismatches", n)
		}
		return nil
	}
	return s, nil
}

func (r *replanRun) layers(tp *tracePass) error {
	tp.timeMedian("optimizer.search_ms", func() error { _, err := optimizer.MaximizeGoodput(r.planCfg); return err })
	tenant := multi.Tenant{Name: replanObserved, Model: r.model, Dist: openingMix, Rate: replanRate, SLO: sloS, Batch: batch}
	tp.timeMedian("multi.plan_ms", func() error { _, err := planWithBackoff(r.clus, []multi.Tenant{tenant}); return err })

	// Leave-one-out: each observer's marginal cost is the wall time the
	// full stack loses when that observer alone is detached. Two rounds,
	// alternating the order, with medians.
	variants := []struct {
		name string
		obs  observers
	}{
		{"", allObservers},
		{"telemetry.marginal_frac", observers{false, true, true}},
		{"slo.marginal_frac", observers{true, false, true}},
		{"flame.marginal_frac", observers{true, true, false}},
	}
	walls := make([][]float64, len(variants))
	var full *replan.Result
	for round := 0; round < 2; round++ {
		for k := range variants {
			i := k
			if round%2 == 1 {
				i = len(variants) - 1 - k
			}
			_, cost, res, err := r.runWith(variants[i].obs)
			tp.attempted++
			if err != nil {
				return fmt.Errorf("leave-one-out %v: %w", variants[i].obs, err)
			}
			walls[i] = append(walls[i], cost.wall.Seconds())
			if i == 0 {
				full = res
			}
		}
	}
	all := median(walls[0])
	for i, v := range variants[1:] {
		tp.set(v.name, (all-median(walls[i+1]))/all)
	}
	tp.set("replan.searches", float64(full.PlanCacheMisses))
	tp.set("replan.cache_hit_frac", ratio(float64(full.PlanCacheHits), float64(full.PlanCacheHits+full.PlanCacheMisses)))
	return fleetLayers(tp, oneReplicaFleet(tenant, r.clus, r.seed, r.windowDur/replanWindowDur))
}

// ---- fleet-zoo -------------------------------------------------------------

// fleet-zoo is fleet.DemoConfig(8, nproc) at fleetLoad times the demo's
// rates over a longer horizon. Up to 4× every replica's plan has room to
// spare and nothing fails; at 5× the per-replica planner has to back off
// and admission sheds over a third of the arrivals. The door screens
// every arrival but sheds none at this load.
const (
	fleetReplicas = 8
	fleetLoad     = 5
	fleetHorizon  = 20 // virtual seconds
)

type fleetRun struct {
	cfg fleet.Config
	// allocs is one replica's multi-tenant plan, built once for the
	// replay of one replica.
	allocs []multi.Allocation
}

func fleetConfig(seed int64, scale float64) fleet.Config {
	cfg := fleet.DemoConfig(fleetReplicas, nproc())
	for i := range cfg.Tenants {
		cfg.Tenants[i].Rate *= fleetLoad
	}
	cfg.Horizon = fleetHorizon * scale
	cfg.Seed = seed
	return cfg
}

func prepareFleet(seed int64, scale float64) (instance, error) {
	cfg := fleetConfig(seed, scale)
	if _, err := fleet.New(cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", fleetZoo, err)
	}
	return &fleetRun{cfg: cfg}, nil
}

func (f *fleetRun) run() (*outcome, hostCost, error) {
	res, cost, err := runFleet(f.cfg)
	if err != nil {
		return nil, cost, err
	}
	o := fleetOutcome(res)
	return o, cost, o.check()
}

// runFleet runs a fleet and re-checks its conservation (fleet.Run already
// verified every shard's ledger and the door).
func runFleet(cfg fleet.Config) (*fleet.Result, hostCost, error) {
	var res *fleet.Result
	cost, err := measure(func() error {
		var err error
		res, err = fleet.Run(cfg)
		return err
	})
	if err != nil {
		return nil, cost, err
	}
	return res, cost, res.Verify()
}

func fleetOutcome(res *fleet.Result) *outcome {
	o := &outcome{sent: res.Minted, doorShed: res.DoorShed, setupIncluded: true}
	var lat []float64
	for _, sr := range res.Shards {
		for _, tr := range sr.Tenants {
			o.served += tr.Served
			o.late += tr.Violations
			o.dropped += tr.Dropped
			o.goodput += tr.Goodput
		}
		lat = append(lat, digestLatencies(sr.Digest)...)
	}
	o.p50, o.p99 = quantiles(lat)
	o.latN = len(lat)
	sum := sha256.Sum256([]byte(res.Digests()))
	o.digest = hex.EncodeToString(sum[:8])
	return o
}

// digestLatencies reads completion latencies out of ledger digests: the
// tracked samples' lines, "id: arrived@T … completed@T(xL)". The fleet's
// sampled ledgers detail every AuditStride-th request, so these are a
// systematic sample of all completions.
func digestLatencies(d string) []float64 {
	var lat []float64
	for _, line := range strings.Split(d, "\n") {
		_, events, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		start := math.NaN()
		for _, ev := range strings.Fields(events) {
			kind, rest, _ := strings.Cut(ev, "@")
			if i := strings.IndexByte(rest, '('); i >= 0 {
				rest = rest[:i]
			}
			at, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				continue
			}
			switch kind {
			case audit.KindArrived.String():
				start = at
			case audit.KindCompleted.String():
				lat = append(lat, at-start)
			}
		}
	}
	return lat
}

// replicaTenants is the demand one replica of a homogeneous fleet is
// planned for: its share of every tenant's fleet-wide rate.
func replicaTenants(cfg fleet.Config) []multi.Tenant {
	share := 1 / float64(len(cfg.Replicas))
	var out []multi.Tenant
	for _, t := range cfg.Tenants {
		out = append(out, multi.Tenant{Name: t.Name, Model: t.Model, Dist: t.Dist, Rate: t.Rate * share, SLO: t.SLO, Batch: t.Batch})
	}
	return out
}

// planWithBackoff plans as the fleet plans a replica: halve every
// tenant's rate, up to twice, until the inventory sustains it.
func planWithBackoff(clus *cluster.Cluster, tenants []multi.Tenant) ([]multi.Allocation, error) {
	scaled := append([]multi.Tenant(nil), tenants...)
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var allocs []multi.Allocation
		if allocs, err = multi.Plan(clus, scaled); err == nil {
			return allocs, nil
		}
		for i := range scaled {
			scaled[i].Rate /= 2
		}
	}
	return nil, err
}

// driven replays one replica of the fleet: its multi-tenant plan deployed
// on one engine, each tenant's share of the fleet's traffic arriving
// straight at its batcher, with no router in front.
func (f *fleetRun) driven() (*stack, error) {
	spec := f.cfg.Replicas[0]
	clus := cluster.New(spec.GPUs, 2)
	tenants := replicaTenants(f.cfg)
	if f.allocs == nil {
		allocs, err := planWithBackoff(clus, tenants)
		if err != nil {
			return nil, err
		}
		f.allocs = allocs
	}
	eng := sim.NewEngine()
	pool := workload.NewBatchPool()
	stacks, err := multi.DeployServing(eng, clus, tenants, f.allocs, f.cfg.AuditStride, pool)
	if err != nil {
		return nil, err
	}
	s := &stack{eng: eng, pool: pool}
	expect := 0.0
	for ti, t := range tenants {
		var st *multi.ServingTenant
		for j := range stacks {
			if stacks[j].Spec.Name == t.Name {
				st = &stacks[j]
			}
		}
		if st == nil {
			return nil, fmt.Errorf("tenant %q missing from the replica's deployment", t.Name)
		}
		seed := f.cfg.Seed + int64(ti)*1_000_003
		gen := workload.NewGenerator(t.Dist, seed+7)
		gen.SetAudit(st.Coll.Audit)
		s.lanes = append(s.lanes, &lane{
			stream: trace.NewPoissonStream(t.Rate, f.cfg.Horizon, seed), gen: gen, dist: t.Dist,
			slo: t.SLO, batch: t.Batch, model: t.Model, plan: st.Alloc.Plan, pipe: st.Pipe,
		})
		expect += t.Rate * f.cfg.Horizon
	}
	eng.SetEventLimit(uint64(expect)*8 + 1_000_000)
	return s, nil
}

func (f *fleetRun) layers(tp *tracePass) error {
	clus := cluster.New(f.cfg.Replicas[0].GPUs, 2)
	tenants := replicaTenants(f.cfg)
	tp.timeMedian("multi.plan_ms", func() error { _, err := planWithBackoff(clus, tenants); return err })
	// One search per tenant, each on the devices the replica's plan gave it.
	tp.timeMedian("optimizer.search_ms", func() error {
		for _, a := range f.allocs {
			t := tenantNamed(tenants, a.Tenant)
			sub := &cluster.Cluster{Topology: clus.Topology}
			for _, d := range a.Devices {
				sub.Devices = append(sub.Devices, clus.Devices[d])
			}
			if _, err := optimizer.MaximizeGoodput(planConfig(t.Model, profile.FromDist(t.Model, t.Dist, 8000, 1), t.Batch, sub, t.SLO)); err != nil {
				return fmt.Errorf("tenant %s: %w", t.Name, err)
			}
		}
		return nil
	})
	tp.absent("telemetry.marginal_frac", "slo.marginal_frac", "flame.marginal_frac", "replan.searches", "replan.cache_hit_frac")
	return fleetLayers(tp, f.cfg)
}

func tenantNamed(ts []multi.Tenant, name string) multi.Tenant {
	for _, t := range ts {
		if t.Name == name {
			return t
		}
	}
	return multi.Tenant{}
}

// oneReplicaFleet puts a single-tenant workload behind the fleet tier:
// one replica with the workload's cluster, its tenant at its rate, over a
// tenth of paper-9k's horizon. Workloads that do not route measure the
// fleet layers on it.
func oneReplicaFleet(t multi.Tenant, clus *cluster.Cluster, seed int64, scale float64) fleet.Config {
	return fleet.Config{
		Tenants:     []fleet.TenantSpec{{Name: t.Name, Model: t.Model, Dist: t.Dist, Rate: t.Rate, SLO: t.SLO, Batch: t.Batch}},
		Replicas:    []fleet.ReplicaSpec{{GPUs: clus.Counts()}},
		Horizon:     10 * scale,
		EpochDur:    1,
		Seed:        seed,
		AuditStride: paperAuditStride,
		Workers:     nproc(),
	}
}

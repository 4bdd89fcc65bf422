package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"e3/internal/audit"
	"e3/internal/exec"
	"e3/internal/fleet"
	"e3/internal/gpu"
	"e3/internal/sim"
	"e3/internal/workload"
)

// tracePass collects the per-layer metrics of one traced run.
type tracePass struct {
	seed  int64
	scale float64
	vals  map[string]float64
	// notes explain values the workload does not exercise.
	notes map[string]string
	// spans sums the traced driven runs; rows print its self/child table.
	spans *spans
	// attempted counts the simulation runs the pass made; errs the checks
	// that failed.
	attempted int
	errs      []error
	// digests pairs each untraced driven run's ledger digest with its
	// traced twin's.
	digests [][2]string
	// out is the workload's own untraced run.
	out *outcome
	// untracedWall and tracedWall are the driven runs' median walls in
	// seconds.
	untracedWall, tracedWall float64
}

func (tp *tracePass) set(name string, v float64) { tp.vals[name] = v }

// absent records metrics of layers the workload does not run as zero.
func (tp *tracePass) absent(names ...string) {
	for _, n := range names {
		tp.vals[n] = 0
		tp.notes[n] = "layer not in this workload"
	}
}

// timeMedian times fn three times and records the median in ms.
func (tp *tracePass) timeMedian(name string, fn func() error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			tp.errs = append(tp.errs, fmt.Errorf("%s: %w", name, err))
			return
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	tp.set(name, median(ms))
}

// compareDigests is the check that outside spans leave the simulation
// unchanged: a traced run's ledgers must equal its untraced twin's.
func compareDigests(untraced, traced string) error {
	if untraced != traced {
		return fmt.Errorf("traced run diverged from the untraced run: ledger digest %s != %s", traced, untraced)
	}
	return nil
}

// tracedPairs is how many untraced/traced pairs of the driven stack the
// pass runs; the order alternates so drift in the host hits both sides.
const tracedPairs = 2

// tracedPass measures every per-layer metric for one workload.
func tracedPass(inst instance, seed int64, scale float64) *tracePass {
	tp := &tracePass{seed: seed, scale: scale, vals: map[string]float64{}, notes: map[string]string{}, spans: newSpans()}
	if err := tp.measure(inst); err != nil {
		tp.errs = append(tp.errs, err)
	}
	return tp
}

func (tp *tracePass) measure(inst instance) error {
	// The workload's own run, untraced: the collector's share of it.
	out, cost, err := inst.run()
	tp.attempted++
	if err != nil {
		return fmt.Errorf("workload run: %w", err)
	}
	tp.out = out
	tp.set("gc.cpu_frac", cost.gcCPUFrac)
	tp.set("gc.cycles_per_mrequest", float64(cost.numGC)*1e6/float64(out.sent))

	// The driven data plane, untraced and traced in turn.
	var uWalls, tWalls, evRates []float64
	var traced *stack
	var auditTook time.Duration
	for pair := 0; pair < tracedPairs; pair++ {
		var digests [2]string
		for k := 0; k < 2; k++ {
			withSpans := (k+pair)%2 == 1
			s, err := inst.driven()
			if err != nil {
				return err
			}
			var sp *spans
			if withSpans {
				sp = newSpans()
			}
			cost, err := measure(func() error { return s.drive(sp) })
			tp.attempted++
			if err != nil {
				return fmt.Errorf("driven run: %w", err)
			}
			took, err := s.audit()
			if err != nil {
				return fmt.Errorf("driven run: %w", err)
			}
			if withSpans {
				digests[1] = s.digest()
				tWalls = append(tWalls, cost.wall.Seconds())
				tp.spans.add(sp)
				traced, auditTook = s, took
			} else {
				digests[0] = s.digest()
				uWalls = append(uWalls, cost.wall.Seconds())
				evRates = append(evRates, float64(s.eng.Processed())/cost.wall.Seconds())
			}
		}
		tp.digests = append(tp.digests, digests)
	}
	for _, p := range tp.digests {
		if err := compareDigests(p[0], p[1]); err != nil {
			tp.errs = append(tp.errs, err)
		}
	}
	tp.stackLayers(traced, auditTook)
	tp.set("sim.events_per_s", median(evRates))
	tp.untracedWall, tp.tracedWall = median(uWalls), median(tWalls)
	tp.set("tracing.overhead_frac", tp.tracedWall/tp.untracedWall-1)

	// Replays of single layers on the driven stack's own inputs.
	depth := 0
	if tp.spans.depthN > 0 {
		depth = int(tp.spans.depthSum / tp.spans.depthN)
	}
	tp.set("sim.heap_ns_per_event", heapChurn(depth, tp.count(2_000_000), tp.seed))
	tp.set("ee.exit_ns", exitReplay(traced.lanes, tp.count(1_000_000), tp.seed))
	tp.set("exec.split_ns_per_sample", splitReplay(traced.lanes, tp.count(200_000), tp.seed))

	return inst.layers(tp)
}

// count scales a replay's size, keeping it large enough to time.
func (tp *tracePass) count(n int) int {
	if m := int(float64(n) * tp.scale); m > 1000 {
		return m
	}
	return 1000
}

// stackLayers derives the driven stack's layer metrics from the traced
// runs' spans and the last traced stack's collectors.
func (tp *tracePass) stackLayers(s *stack, auditTook time.Duration) {
	sp := tp.spans
	perCall := func(l layer, d time.Duration) float64 { return ratio(float64(d.Nanoseconds()), float64(sp.calls[l])) }
	tp.set("trace.next_ns", perCall(spanTraceNext, sp.total[spanTraceNext]))
	tp.set("workload.next_ns", perCall(spanWorkloadNext, sp.total[spanWorkloadNext]))
	tp.set("serving.arrive_ns", perCall(spanArrive, sp.self(spanArrive)))
	tp.set("sim.step_ns_per_event", perCall(spanStep, sp.self(spanStep)))
	tp.set("layers.unexplained_frac", ratio(float64(sp.self(spanRun)), float64(sp.total[spanRun])))

	var ingested, ingests int64
	arrivals := float64(s.arrivals())
	drops := map[audit.Reason]int{}
	var exitSum, completed float64
	t0 := time.Now()
	for _, l := range s.lanes {
		l.pipe.Collector().Lat.Summarize()
	}
	tp.set("metrics.summarize_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	tp.set("audit.report_ms", float64(auditTook.Nanoseconds())/1e6)
	for _, l := range s.lanes {
		ingested += l.ingested
		ingests += l.ingests
		c := l.pipe.Collector()
		for r, n := range c.Audit.DropBreakdown() {
			drops[r] += n
		}
		done := float64(c.Good.Served + c.Violations)
		exitSum += done * meanExitLayer(c.ObservedProfile().Survival)
		completed += done
	}
	tp.set("scheduler.ingest_ns_per_sample", ratio(float64(sp.total[spanIngest].Nanoseconds()), float64(ingested)))
	tp.set("serving.batch_size_mean", ratio(float64(ingested), float64(ingests)))
	tp.set("serving.drop_frac.admission", float64(drops[audit.ReasonAdmission])/arrivals)
	tp.set("serving.drop_frac.sla-flush", float64(drops[audit.ReasonSLAFlush])/arrivals)
	tp.set("scheduler.drop_frac.stale-shed", float64(drops[audit.ReasonStaleShed])/arrivals)
	tp.set("sim.events_per_request", float64(s.eng.Processed())/arrivals)
	tp.set("ee.mean_exit_layer", ratio(exitSum, completed))
	if s.pool == nil {
		tp.absent("workload.pool_hit_frac")
	} else {
		gets, hits := s.pool.Stats()
		tp.set("workload.pool_hit_frac", ratio(float64(hits), float64(gets)))
	}
}

// meanExitLayer is the expected exit layer of a survival profile
// (Survival[k] is the share entering layer k, 1-based): Σ_k P(exit ≥ k).
func meanExitLayer(survival []float64) float64 {
	sum := 0.0
	for _, s := range survival[1:] {
		sum += s
	}
	return sum
}

// heapChurn times Engine.At/Step pairs with the heap held at depth
// pending events: every event that fires schedules one more.
func heapChurn(depth, n int, seed int64) float64 {
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewSource(seed))
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.ExpFloat64() * 1e-3
	}
	eng := sim.NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+depth <= n {
			eng.After(delays[fired%len(delays)], tick)
		}
	}
	for i := 0; i < depth; i++ {
		eng.After(delays[i%len(delays)], tick)
	}
	t0 := time.Now()
	for eng.Step() {
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(fired)
}

// draws mints n difficulty draws from a lane's workload distribution.
func draws(l *lane, n int, seed int64) []workload.Sample {
	gen := workload.NewGenerator(l.dist, seed)
	out := make([]workload.Sample, n)
	for i := range out {
		out[i] = gen.Next(0, l.slo)
	}
	return out
}

// exitSink keeps the replayed exit decisions observable.
var exitSink int

// exitReplay times ExitLayerFor on every lane's model over its own
// difficulty draws.
func exitReplay(lanes []*lane, n int, seed int64) float64 {
	var took time.Duration
	calls := 0
	for _, l := range lanes {
		ds := draws(l, n/len(lanes), seed)
		t0 := time.Now()
		for _, d := range ds {
			exitSink += l.model.ExitLayerFor(d.Difficulty)
		}
		took += time.Since(t0)
		calls += len(ds)
	}
	return float64(took.Nanoseconds()) / float64(calls)
}

// splitReplay runs batches of every lane's draws through its plan's
// splits with RunSplitInto, survivors of one split feeding the next, and
// returns the time per sample a split processed.
func splitReplay(lanes []*lane, n int, seed int64) float64 {
	var took time.Duration
	processed := 0
	for _, l := range lanes {
		m := l.plan.ExecModel(l.model)
		ds := draws(l, n/len(lanes), seed)
		res := make([]exec.Result, len(l.plan.Splits))
		t0 := time.Now()
		for lo := 0; lo+l.batch <= len(ds); lo += l.batch {
			cur := ds[lo : lo+l.batch]
			for i, sp := range l.plan.Splits {
				if len(cur) == 0 {
					break
				}
				exec.RunSplitInto(m, sp.From, sp.To, cur, gpu.Get(sp.Kind), 1, &res[i])
				processed += len(cur)
				cur = res[i].Survivors
			}
		}
		took += time.Since(t0)
	}
	return ratio(float64(took.Nanoseconds()), float64(processed))
}

// fleetLayers measures the fleet tier on cfg: the speed-up of nproc
// shard workers over one (runs alternate; digests must match), process
// CPU over wall at nproc workers, the door's shed share, and the router's
// cost per arrival on a freshly built fleet whose replicas are not
// advanced.
func fleetLayers(tp *tracePass, cfg fleet.Config) error {
	p := nproc()
	var par, ser, cpuPerWall []float64
	var door float64
	var refDigest string
	for i := 0; i < 4; i++ {
		workers := p
		if (i+i/2)%2 == 1 {
			workers = 1
		}
		c := cfg
		c.Workers = workers
		res, cost, err := runFleet(c)
		tp.attempted++
		if err != nil {
			return fmt.Errorf("fleet run at %d workers: %w", workers, err)
		}
		d := res.Digests()
		if refDigest == "" {
			refDigest = d
		} else if d != refDigest {
			tp.errs = append(tp.errs, fmt.Errorf("fleet run at %d workers diverged from the others", workers))
		}
		if workers == 1 {
			ser = append(ser, cost.wall.Seconds())
		} else {
			par = append(par, cost.wall.Seconds())
			cpuPerWall = append(cpuPerWall, cost.cpu.Seconds()/cost.wall.Seconds())
		}
		door = ratio(float64(res.DoorShed), float64(res.Minted))
	}
	speedup := median(ser) / median(par)
	tp.set("fleet.speedup", speedup)
	tp.set("fleet.serial_frac", amdahlSerial(speedup, p))
	tp.set("fleet.cpu_per_wall", median(cpuPerWall))
	tp.set("fleet.door_shed_frac", door)

	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	ro := fleet.NewRouter(len(cfg.Replicas), len(cfg.Tenants))
	var took time.Duration
	const routeEpochs = 10
	for e := 0; e < routeEpochs; e++ {
		start, end := float64(e)*cfg.EpochDur, float64(e+1)*cfg.EpochDur
		if start >= cfg.Horizon {
			break
		}
		if end > cfg.Horizon {
			end = cfg.Horizon
		}
		t0 := time.Now()
		ro.RouteEpoch(f, e, start, end)
		took += time.Since(t0)
	}
	tp.set("fleet.route_ns_per_arrival", ratio(float64(took.Nanoseconds()), float64(ro.Minted)))
	return nil
}

// amdahlSerial is the serial fraction Amdahl's law gives for a measured
// speed-up on p workers; with one worker nothing runs in parallel.
func amdahlSerial(speedup float64, p int) float64 {
	if p <= 1 {
		return 1
	}
	return (float64(p)/speedup - 1) / float64(p-1)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nproc is the CPU count the process may run on; GOMAXPROCS is held at or
// below it.
func nproc() int { return runtime.NumCPU() }

// Command e3-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	e3-bench -list                 # list experiment IDs
//	e3-bench -fig fig07            # run one experiment
//	e3-bench -all                  # run everything (several minutes)
//	e3-bench fig07 fig12 fig19     # run a selection
//	e3-bench -audit                # lifecycle conservation audit
//	e3-bench -trace-out demo.json  # export a Perfetto-loadable timeline
//	e3-bench -flame-out demo.json  # virtual-time GPU flame profile
//	e3-bench -windows 20 -audit    # windowed replan loop + conservation gate
//	e3-bench -fleet 8              # fleet demo, per-replica accounting
//
// Performance is measured by bash _benchmark/run.sh, not by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"e3/internal/experiments"
	"e3/internal/flame"
	"e3/internal/forecast"
	"e3/internal/replan"
	"e3/internal/serving"
	"e3/internal/slo"
	"e3/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	fig := flag.String("fig", "", "run a single experiment by ID")
	all := flag.Bool("all", false, "run every registered experiment")
	auditRun := flag.Bool("audit", false, "run the lifecycle conservation audit (bursty open loop, all runners); exits nonzero on violations")
	format := flag.String("format", "table", "output format: table or csv")
	traceOut := flag.String("trace-out", "", "run the traced demo and write its Chrome trace-event timeline to FILE (load at ui.perfetto.dev); exits nonzero if the run fails its audit")
	windows := flag.Int("windows", 0, "run the windowed replan loop (drifting mix, ARIMA vs persistence on the same seed) for N windows; combines with -audit (conservation gate) and -trace-out")
	bundleOnFailure := flag.String("bundle-on-failure", "", "with -windows: attach the flight recorder and, if any trigger fires (audit violation, SLO burn breach, engine abort), write its diagnostic bundle to FILE")
	attrOut := flag.String("attr-out", "", "with -windows: write the per-request latency-attribution dump (component totals, per-stage compute, top-k slowest breakdowns) to FILE")
	sloTarget := flag.Float64("slo-target", slo.DefaultTarget, "with -windows: SLO attainment target the error budget is tracked against")
	burnThreshold := flag.Float64("burn-threshold", slo.DefaultBurnThreshold, "with -windows: burn-rate alert threshold (1 = burning exactly the budget)")
	flameOut := flag.String("flame-out", "", "run under the virtual-time compute profiler and write the JSON flame profile to FILE (with -windows: profile of the whole replan run); exits nonzero unless the profile reconciles exactly")
	flameFolded := flag.String("flame-folded", "", "like -flame-out but write collapsed-stack text (flamegraph.pl / speedscope input)")
	flamePprof := flag.String("flame-pprof", "", "like -flame-out but write a gzip pprof profile.proto (`go tool pprof FILE`)")
	flameRunner := flag.String("flame-runner", "pipeline", "runner for the flame demo run: pipeline or serial (§5.8.7 phase-synchronized baseline)")
	fleetN := flag.Int("fleet", 0, "run the fleet demo with N replica shards (multi-tenant zoo, GPU-aware epoch routing) and print per-replica accounting")
	fleetWorkers := flag.Int("fleet-workers", 0, "with -fleet: shard-runner worker count (0 = one per shard); any count reproduces the serial reference byte-for-byte")
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "e3-bench: unknown format %q\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *fleetN > 0 {
		workers := *fleetWorkers
		if workers <= 0 {
			workers = *fleetN
		}
		os.Exit(runFleetOnce(*fleetN, workers))
	}

	if *windows > 0 {
		os.Exit(runReplan(*windows, *auditRun, *traceOut, *bundleOnFailure, *attrOut, *sloTarget, *burnThreshold,
			*flameOut, *flameFolded, *flamePprof))
	}

	if *flameOut != "" || *flameFolded != "" || *flamePprof != "" {
		os.Exit(runFlameDemo(*flameRunner, *flameOut, *flameFolded, *flamePprof))
	}

	if *traceOut != "" {
		if err := exportTrace(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "e3-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *auditRun {
		start := time.Now()
		t, violations := experiments.RunAudit()
		if *format == "csv" {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			t.CSV(os.Stdout)
		} else {
			t.Print(os.Stdout)
			fmt.Printf("  (completed in %.1fs)\n\n", time.Since(start).Seconds())
		}
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "e3-bench: audit found %d conservation violation(s)\n", violations)
			os.Exit(1)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *fig != "":
		ids = []string{*fig}
	default:
		ids = flag.Args()
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "e3-bench: nothing to run; try -list, -all, or -fig <id>")
		os.Exit(2)
	}

	exit := 0
	for _, id := range ids {
		start := time.Now()
		t, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e3-bench:", err)
			exit = 1
			continue
		}
		if *format == "csv" {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			t.CSV(os.Stdout)
			fmt.Println()
		} else {
			t.Print(os.Stdout)
			fmt.Printf("  (completed in %.1fs)\n\n", time.Since(start).Seconds())
		}
	}
	os.Exit(exit)
}

// demoHorizon is virtual seconds of bursty arrivals for the traced demo
// (the audit experiment's setting).
const demoHorizon = 10.0

// exportTrace runs the traced demo with an unbounded tracer and writes
// the full span timeline as Chrome trace-event JSON, printing the
// per-split occupancy summary and the audit verdict.
func exportTrace(path string) error {
	tr := telemetry.New()
	rep, _, plan, err := experiments.RunDemo("pipeline", serving.Observe{Trace: tr}, demoHorizon)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChrome(f, tr.Spans()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("plan: %s\n", plan)
	telemetry.Summarize(tr.Spans()).Print(os.Stdout)
	fmt.Printf("%s\n", rep)
	fmt.Printf("wrote %d spans to %s\n", len(tr.Spans()), path)
	return rep.Err()
}

// runReplan drives the windowed predict→plan→serve→observe loop on the
// drifting-mix demo, prints the per-window table, and returns the process
// exit code. auditGate makes any conservation or reconcile violation
// fatal (the `make verify` gate). bundlePath arms the flight recorder and
// dumps its bundle when any trigger fires; attrPath writes the
// per-request latency-attribution dump.
func runReplan(windows int, auditGate bool, tracePath, bundlePath, attrPath string, sloTarget, burnThreshold float64,
	flameOut, flameFolded, flamePprof string) int {
	var tr *telemetry.Tracer
	if tracePath != "" {
		tr = telemetry.New()
	}
	cfg := replan.DriftingDemo(windows, forecast.MethodARIMA, tr)
	attr := slo.NewAttribution(slo.DefaultTopK)
	cfg.Attr = attr
	cfg.SLOTarget = sloTarget
	cfg.BurnThreshold = burnThreshold
	var fl *flame.Profiler
	if flameOut != "" || flameFolded != "" || flamePprof != "" {
		fl = flame.NewProfiler(0)
		cfg.Flame = fl
	}
	var rec *slo.Recorder
	if bundlePath != "" {
		// The recorder needs a span ring to snapshot; give the run one
		// when -trace-out didn't already attach a tracer.
		if cfg.Tracer == nil {
			cfg.Tracer = telemetry.NewRing(2048)
		}
		rec = &slo.Recorder{}
		cfg.Recorder = rec
	}
	start := time.Now()
	res, err := replan.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-bench:", err)
		return 1
	}
	// Persistence baseline: same seed, same drift, forecaster swapped.
	base, err := replan.Run(replan.DriftingDemo(windows, forecast.MethodPersistence, nil))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-bench:", err)
		return 1
	}

	fmt.Printf("replan loop: %d windows x 2s virtual (drifting mix, ARIMA forecaster)\n\n", windows)
	fmt.Printf("%-7s %-10s %-9s %-7s %-8s %-9s %-8s %-8s %-7s %s\n",
		"window", "goodput/s", "slo-att", "burn", "bgt-rem", "fcst-mae", "drift", "replan", "cache", "plan")
	for _, ws := range res.Windows {
		mark := "-"
		switch {
		case ws.PlanChanged:
			mark = "CHANGED"
		case ws.Replanned:
			mark = "kept"
		}
		cache := "-"
		switch {
		case ws.PlanCacheHit:
			cache = "hit"
		case ws.Replanned:
			cache = "miss"
		}
		burn := fmt.Sprintf("%.2f", ws.Budget.BurnRate)
		if ws.Budget.Breached {
			burn += "!"
		}
		fmt.Printf("%-7d %-10.0f %-9.3f %-7s %-8.3f %-9.4f %-8.3f %-8v %-7s %s\n",
			ws.Window, ws.Goodput, ws.SLOAttainment, burn, ws.Budget.BudgetRemaining,
			ws.ForecastMAE, ws.Drift, ws.Replanned, cache, mark)
	}
	fmt.Println()
	for _, d := range res.Diffs.Items() {
		fmt.Println(d.String())
	}
	fmt.Printf("\nreplans: %d (%d plan changes, %d plan-cache hits / %d misses); final plan: %s\n",
		res.Replans, res.PlanChanges, res.PlanCacheHits, res.PlanCacheMisses, res.FinalPlan)
	fmt.Printf("forecast MAE: arima %.4f vs persistence %.4f\n", res.MeanForecastMAE, base.MeanForecastMAE)
	fmt.Printf("SLO budget: target %.3f, %d/%d windows breached burn threshold %.1f\n",
		res.Budget.Target(), res.Budget.Breaches(), res.Budget.Windows(), res.Budget.BurnThreshold())
	completed, dropped, attributed := attr.Counts()
	fmt.Printf("attribution: %d completed / %d dropped, %d breakdowns folded, %d sum mismatches (max residual %.3g s)\n",
		completed, dropped, attributed, attr.Mismatches(), attr.MaxResidual())
	fmt.Printf("%s\n", res.Report)
	fmt.Printf("(completed in %.1fs)\n", time.Since(start).Seconds())

	if tracePath != "" {
		f, ferr := os.Create(tracePath)
		if ferr == nil {
			ferr = telemetry.WriteChrome(f, tr.Spans())
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "e3-bench:", ferr)
			return 1
		}
		fmt.Printf("wrote %d spans to %s\n", len(tr.Spans()), tracePath)
	}
	if bundlePath != "" {
		if rec.TriggerCount() == 0 {
			fmt.Println("flight recorder: no triggers fired; no bundle written")
		} else {
			f, ferr := os.Create(bundlePath)
			if ferr == nil {
				ferr = rec.Last().WriteJSON(f)
				if cerr := f.Close(); ferr == nil {
					ferr = cerr
				}
			}
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "e3-bench:", ferr)
				return 1
			}
			fmt.Printf("flight recorder: %d trigger(s) fired; wrote bundle to %s\n", rec.TriggerCount(), bundlePath)
		}
	}
	if attrPath != "" {
		f, ferr := os.Create(attrPath)
		if ferr == nil {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			ferr = enc.Encode(attr.Dump())
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "e3-bench:", ferr)
			return 1
		}
		fmt.Printf("wrote attribution dump to %s\n", attrPath)
	}
	if fl != nil {
		if werr := writeFlameArtifacts(fl.Profile(), flameOut, flameFolded, flamePprof); werr != nil {
			fmt.Fprintln(os.Stderr, "e3-bench:", werr)
			return 1
		}
		fmt.Printf("flame reconcile: residual %dns over %d devices — %s\n",
			res.FlameStat.Residual, res.FlameStat.Devices,
			map[bool]string{true: "exact", false: "MISMATCH"}[res.FlameStat.OK()])
	}
	if auditGate {
		if err := res.Report.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "e3-bench:", err)
			return 1
		}
		if err := base.Report.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "e3-bench: persistence baseline:", err)
			return 1
		}
		fmt.Println("audit: ok (sample lifecycle conserved across all plan switches)")
	}
	return 0
}

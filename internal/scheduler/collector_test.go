package scheduler

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/exec"
	"e3/internal/gpu"
	"e3/internal/workload"
)

// TestCollectorBoundariesAllocFreeWithNilSinks pins that reporting a
// lifecycle boundary costs no allocation when every observer is off — the
// paper-scale data plane runs that way. Executed, Complete and Drop append
// to the utilization and latency logs, whose amortized growth
// AllocsPerRun's integer mean rounds away; a per-call allocation shows as 1.
func TestCollectorBoundariesAllocFreeWithNilSinks(t *testing.T) {
	c := NewCollector(12, 0.1, 0)
	dev := &cluster.Homogeneous(gpu.V100, 1).Devices[0]
	c.Register(dev)
	s := workload.Sample{ID: 1, Arrival: 0, Deadline: 0.1}
	batch := []workload.Sample{s, s}
	res := &exec.Result{Duration: 0.002, RampTime: 0.0005}
	for _, b := range []struct {
		name string
		fn   func()
	}{
		{"Register", func() { c.Register(dev) }},
		{"Queued", func() { c.Queued(s, 0.01) }},
		{"QueueWait", func() { c.QueueWait(len(batch), 0, 0.01) }},
		{"Dispatched", func() { c.Dispatched(s, 0.01, 0, 0) }},
		{"Executed", func() { c.Executed(dev, "m", 0, 1, 4, batch, 0.01, res) }},
		{"Transferred", func() { c.Transferred(0, len(batch), 0.012, 0.013) }},
		{"Merged", func() { c.Merged(s, 0.013, 1) }},
		{"Fused", func() { c.Fused(1, len(batch), 0.013, 0.014) }},
		{"Complete", func() { c.Complete(s, 0.02, 4) }},
		{"Drop", func() { c.Drop(s, 0.02, audit.ReasonStaleShed) }},
	} {
		if got := testing.AllocsPerRun(1000, b.fn); got != 0 {
			t.Errorf("%s allocates %.0f times per call with every observer nil", b.name, got)
		}
	}
}

// TestRunnersReportOnlyThroughCollector keeps the one-boundary rule
// structural: the runners and the batcher report each lifecycle boundary
// through a Collector method, never by calling an observer directly, so
// which observer sees which boundary is decided in one place.
func TestRunnersReportOnlyThroughCollector(t *testing.T) {
	sinks := map[string]bool{"Audit": true, "Trace": true, "Attr": true, "Flame": true}
	fset := token.NewFileSet()
	for _, path := range []string{"pipeline.go", "serial.go", "dataparallel.go", "../serving/batcher.go"} {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if field, ok := method.X.(*ast.SelectorExpr); ok && sinks[field.Sel.Name] {
				t.Errorf("%s: calls %s.%s directly; report the boundary through a Collector method",
					fset.Position(call.Pos()), field.Sel.Name, method.Sel.Name)
			}
			return true
		})
	}
}

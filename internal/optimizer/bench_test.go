package optimizer

import (
	"fmt"
	"testing"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/profile"
	"e3/internal/workload"
)

// benchCase is one planner workload for the benchmark grid: a model scale
// crossed with a cluster heterogeneity level. BenchmarkSearch times the
// reference, memoized-serial and memoized-parallel searches on each one.
type benchCase struct {
	name string
	cfg  Config
}

func benchCases(b *testing.B) []benchCase {
	mk := func(m *ee.EEModel, batch int, c *cluster.Cluster, slo float64, splits int) Config {
		return Config{
			Model:   m,
			Profile: profile.FromDist(m, workload.Mix(0.8), 4000, 1),
			Batch:   batch, Cluster: c,
			SLO: slo, SlackFrac: 0.2, MinExitFrac: DefaultMinExitFrac,
			MaxSplits: splits, Pipelining: true, ModelParallel: true,
		}
	}
	deebert := ee.NewDeeBERT(model.BERTBase(), 0.4)
	large := ee.NewDeeBERT(model.BERTLarge(), 0.4)
	llama := ee.NewLlamaEE(model.Llama318B())
	cases := []benchCase{
		{"small/1kind", mk(deebert, 8, cluster.Homogeneous(gpu.V100, 16), 0.100, 3)},
		{"small/4kind", mk(deebert, 8, cluster.PaperEvaluation(), 0.100, 4)},
		{"bert-large/2kind", mk(large, 8, cluster.New(map[gpu.Kind]int{gpu.V100: 12, gpu.A6000: 8}, 4), 0.250, 3)},
		{"bert-large/4kind", mk(large, 8, cluster.PaperEvaluation(), 0.250, 4)},
		{"llama/3kind", mk(llama, 4, cluster.New(map[gpu.Kind]int{gpu.V100: 16, gpu.A6000: 16, gpu.P100: 8}, 4), 2.0, 4)},
	}
	for _, c := range cases {
		if _, err := MaximizeGoodput(c.cfg); err != nil {
			b.Fatalf("%s: benchmark problem infeasible: %v", c.name, err)
		}
	}
	return cases
}

// BenchmarkSolveHomogeneous measures one full plan search on 16 V100s —
// Figure 20's homogeneous column as a proper Go benchmark.
func BenchmarkSolveHomogeneous(b *testing.B) {
	cfg := bertConfig(8, 0.8, cluster.Homogeneous(gpu.V100, 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximizeGoodput(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveHeterogeneous measures the 46-GPU mixed-cluster search —
// Figure 20's heterogeneous column.
func BenchmarkSolveHeterogeneous(b *testing.B) {
	cfg := bertConfig(8, 0.8, cluster.PaperEvaluation())
	cfg.MaxSplits = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximizeGoodput(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearch compares the three planner paths over the model/cluster
// grid: the retained pre-memoization reference, the memoized serial
// search, and the memoized parallel search (default workers). Allocation
// counts make the "zero per-candidate model clones" claim measurable.
func BenchmarkSearch(b *testing.B) {
	for _, bc := range benchCases(b) {
		run := func(name string, cfg Config, solve func(Config) (Plan, error)) {
			b.Run(fmt.Sprintf("%s/%s", bc.name, name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := solve(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("reference", bc.cfg, MaximizeGoodputReference)
		serial := bc.cfg
		serial.Workers = -1
		run("memo-serial", serial, MaximizeGoodput)
		par := bc.cfg
		par.Workers = 0 // default pool
		run("memo-parallel", par, MaximizeGoodput)
	}
}

// BenchmarkSearchLarge is the widened search the fast path makes
// affordable: double the boundary candidates, five splits.
func BenchmarkSearchLarge(b *testing.B) {
	cfg := bertConfig(8, 0.8, cluster.PaperEvaluation())
	cfg.MaxBoundaryCands = 20
	cfg.MaxSplits = 5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximizeGoodput(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostTableBuild isolates the memo-table construction cost that
// a replan window amortizes across objectives and windows.
func BenchmarkCostTableBuild(b *testing.B) {
	cfg := bertConfig(8, 0.8, cluster.PaperEvaluation())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := NewCostTableFor(cfg); tbl == nil {
			b.Fatal("nil table")
		}
	}
}

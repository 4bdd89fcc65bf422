package scheduler

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/gpu"
	"e3/internal/sim"
	"e3/internal/workload"
)

// TestPooledPipelineAllocsPerBatch pins the pooled pipeline's
// steady-state allocation budget per ingested batch at zero. With a batch
// pool attached, batches and survivors are recycled through the pool, the
// grouped completion and survivor transfer events through the pipeline's
// free lists (each completion event carrying the buffer its split ran
// into), and the split's pad-attribution scratch lives on the pipeline.
// Closures built per batch for those two events cost four allocations on
// this plan; a Result rebuilt per batch adds one per executed split.
func TestPooledPipelineAllocsPerBatch(t *testing.T) {
	clus := cluster.Homogeneous(gpu.V100, 8)
	plan, m := testPlan(t, clus, 8, 0.8)
	eng := sim.NewEngine()
	p, err := NewPipeline(eng, clus, m, plan, NewCollector(12, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	pool := workload.NewBatchPool()
	p.SetPool(pool)
	gen := workload.NewGenerator(workload.Mix(0.8), 7)
	ingest := func() {
		b := pool.Get(8)
		for i := range b {
			b[i] = gen.Next(eng.Now(), 10)
		}
		p.Ingest(b)
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		ingest()
	}
	if got := testing.AllocsPerRun(2000, ingest); got != 0 {
		t.Fatalf("pooled pipeline allocates %.2f times per batch over %d splits, want 0", got, len(plan.Splits))
	}
}

package scheduler

import (
	"testing"

	"e3/internal/cluster"
	"e3/internal/gpu"
	"e3/internal/sim"
	"e3/internal/workload"
)

// TestPooledPipelineAllocsPerBatch pins the pooled pipeline's
// steady-state allocation budget per ingested batch. With a batch pool
// attached, batches, survivors and completion buffers are all recycled;
// what remains is the grouped completion event and the survivor hand-off
// closure. The split's pad-attribution scratch lives on the pipeline, so
// executing a split allocates nothing; a Result rebuilt per batch paid
// one allocation per executed split.
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
	// Measured at 4 on this three-split plan; a Result rebuilt per batch
	// adds one per executed split (7).
	got := testing.AllocsPerRun(2000, ingest)
	if budget := 4.0; got > budget {
		t.Fatalf("pooled pipeline allocates %.2f times per batch over %d splits, budget %.0f", got, len(plan.Splits), budget)
	}
}

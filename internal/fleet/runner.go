package fleet

// The shard runner is the fleet tier's ONLY concurrency. Everything else
// in this package — the router, the arrival sources, every replica's
// engine and serving stack — is single-goroutine by the same contract the
// eventloop analyzer enforces across the simulator. Between two barriers
// the runner parallelizes disjoint jobs: advancing each shard to the
// barrier and minting each tenant's next epoch. Jobs share no state (a
// shard owns its engine, batchers, pipelines, ledgers and batch pool; a
// mint job owns its tenant's stream, generator and next epoch buffer,
// while the shards read only the current one), every worker joins before
// the function returns, and results land in index-addressed slots — so
// execution is byte-identical to the serial index-order walk that
// workers<=1 performs, at any worker count.

import (
	"sync"
	"sync/atomic"
)

// runShards runs jobs 0..n-1, in index order when workers<=1 (the
// serial reference execution), or via a deterministic worker pool
// otherwise. The first error in index order is returned either way.
func runShards(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	if workers <= 1 || n == 1 {
		for i := range errs {
			errs[i] = fn(i)
		}
		return firstErr(errs)
	}
	nw := workers
	if nw > n {
		nw = n
	}
	var next atomic.Int64
	//e3:concurrent deterministic shard pool: jobs are disjoint between barriers, results land in index slots, and every worker joins before return
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		//e3:concurrent worker goroutines are joined by wg.Wait below; each claims whole jobs, so no simulator state is shared
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return firstErr(errs)
}

// firstErr mirrors the serial walk's error semantics: the lowest-index
// failure wins regardless of which worker hit it first.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostCounters is a snapshot of what the process has spent so far; the
// difference of two snapshots is what the code between them cost.
type hostCounters struct {
	mallocs uint64
	numGC   uint32
	// gcCPU and availCPU are the runtime's own estimates: CPU seconds
	// spent in the garbage collector, and GOMAXPROCS integrated over wall
	// time.
	gcCPU, availCPU float64
}

// hostCost is what one measured call cost.
type hostCost struct {
	wall, cpu time.Duration // cpu is process user + system time
	mallocs   uint64
	numGC     uint32
	gcCPUFrac float64
}

func readHost() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return hostCounters{
		mallocs:  ms.Mallocs,
		numGC:    ms.NumGC,
		gcCPU:    samples[0].Value.Float64(),
		availCPU: samples[1].Value.Float64(),
	}
}

// cost runs fn and returns what it cost. The clocks are read inside the
// counter snapshots, so the snapshots' own stop-the-world pauses are not
// charged to fn.
func cost(fn func() error) (hostCost, error) {
	start := readHost()
	cpu0, t0 := processCPU(), time.Now()
	err := fn()
	wall, cpu := time.Since(t0), processCPU()-cpu0
	end := readHost()
	c := hostCost{
		wall: wall, cpu: cpu,
		mallocs: end.mallocs - start.mallocs,
		numGC:   end.numGC - start.numGC,
	}
	if avail := end.availCPU - start.availCPU; avail > 0 {
		c.gcCPUFrac = (end.gcCPU - start.gcCPU) / avail
	}
	return c, err
}

// measure is cost after a full collection, so garbage from earlier work
// is not charged to fn.
func measure(fn func() error) (hostCost, error) {
	runtime.GC()
	return cost(fn)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

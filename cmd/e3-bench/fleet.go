package main

import (
	"fmt"
	"os"
	"time"

	"e3/internal/fleet"
)

// runFleetOnce executes one fleet configuration and prints its summary.
func runFleetOnce(shards, workers int) int {
	cfg := fleet.DemoConfig(shards, workers)
	start := time.Now()
	res, err := fleet.Run(cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e3-bench:", err)
		return 1
	}
	fmt.Printf("fleet: %d shard(s) x %d worker(s), %d epochs over %gs virtual\n",
		shards, workers, res.Epochs, cfg.Horizon)
	fmt.Printf("%-8s %-14s %-10s %-10s %-10s %-10s %s\n",
		"replica", "gpus", "routed", "served", "violated", "dropped", "events")
	for _, sr := range res.Shards {
		routed, served, violated, dropped := 0, 0, 0, 0
		for _, tr := range sr.Tenants {
			routed += tr.Routed
			served += tr.Served
			violated += tr.Violations
			dropped += tr.Dropped
		}
		fmt.Printf("%-8d %-14s %-10d %-10d %-10d %-10d %d\n",
			sr.Index, sr.GPUs, routed, served, violated, dropped, sr.Events)
	}
	fmt.Printf("\nfront door: %d minted = %d routed + %d shed; %d events in %.2fs wall (%.0f events/s)\n",
		res.Minted, res.Routed, res.DoorShed, res.Events, wall, float64(res.Events)/wall)
	return 0
}

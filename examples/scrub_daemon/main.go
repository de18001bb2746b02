// Scrub daemon: run the paper's periodic scrub loop (§II-D) as a live
// background process against a protected cache while the foreground
// keeps reading and writing — the deployment shape of SuDoku in a real
// memory controller. Thermal noise is emulated by injecting an
// interval's worth of random faults before every pass.
//
// Run with:
//
//	go run ./examples/scrub_daemon
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"sudoku"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = 1 // 1 MB demo cache
	cfg.GroupSize = 64
	cfg.Shards = 4
	cfg.Seed = 2019
	c, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		return err
	}

	payload := bytes.Repeat([]byte("scrubbed"), 8)
	for i := uint64(0); i < 512; i++ {
		if err := c.Write(i*64, payload); err != nil {
			return err
		}
	}

	// Fault pressure: ~40 random flips per rotation over the 1 MB cache
	// is an abusive ~4×10⁻⁶ BER per interval — the paper's regime
	// scaled onto the demo size. The daemon scrubs one shard at a time,
	// so the budget is split across the per-shard passes.
	perPass := max(40/c.Shards(), 1)
	err = c.StartScrub(sudoku.ScrubDaemonConfig{
		Interval:     10 * time.Millisecond,
		StormPerPass: perPass,
		OnPass: func(p sudoku.ScrubPass) {
			if p.Shard == 0 && p.Rotation%10 == 0 {
				fmt.Printf("  rotation %3d, shard 0: %3d singles, %d SDR, %d RAID, %d DUEs (%.1fms)\n",
					p.Rotation, p.Report.SingleRepairs, p.Report.SDRRepairs,
					p.Report.RAIDRepairs, len(p.Report.DUELines),
					float64(p.Took.Microseconds())/1000)
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("starting scrub daemon (10 ms rotation over %d shards, ~%d faults/shard pass)...\n",
		c.Shards(), perPass)

	// Foreground traffic while the daemon runs.
	reads := 0
	got := make([]byte, 64)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := uint64(0); i < 512; i += 7 {
			if err := c.ReadInto(i*64, got); err != nil {
				return fmt.Errorf("foreground read of line %d: %w", i, err)
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("foreground read of line %d returned corrupt data", i)
			}
			reads++
		}
	}
	if err := c.StopScrub(); err != nil {
		return err
	}

	st := c.ScrubStats()
	fmt.Printf("\ndaemon stopped after %d rotations (%d shard passes)\n", st.Rotations, st.ShardPasses)
	fmt.Printf("  repairs: %d single, %d SDR, %d RAID, %d Hash-2\n",
		st.Scrub.SingleRepairs, st.Scrub.SDRRepairs, st.Scrub.RAIDRepairs, st.Scrub.Hash2Repairs)
	fmt.Printf("  DUE lines: %d\n", st.Scrub.DUELines)
	fmt.Printf("  foreground reads verified: %d (all clean)\n", reads)

	// The public API exposes the same machinery in two calls:
	rep, err := sudoku.AnalyzeReliability(sudoku.DefaultReliabilityConfig())
	if err != nil {
		return err
	}
	fmt.Printf("\nat the paper's scale this pressure corresponds to SuDoku-Z FIT %.3g\n", rep.Z.FIT)
	return nil
}

// Package scrubber holds the scrub-pass vocabulary shared by SuDoku's
// periodic scrub loop (§II-D): every ScrubInterval, read every line,
// correct what the per-line and group codes can correct, and write
// back — bounding the window in which thermal faults can accumulate.
// The loop itself is the sharded incremental daemon (shard.ScrubDaemon);
// this package defines what one pass reports (Pass), how passes
// aggregate (Stats), and how the interval adapts to them (Policy).
package scrubber

import (
	"time"

	"sudoku/internal/cache"
)

// Pass describes one completed scrub pass.
type Pass struct {
	// Seq is the 1-based pass number.
	Seq int
	// Report is the cache's repair summary.
	Report cache.ScrubReport
	// Took is the wall-clock duration of the pass.
	Took time.Duration
	// Err carries a pass-level failure (the loop keeps running; DUEs
	// are data, not loop errors).
	Err error
}

// Stats aggregates across passes.
type Stats struct {
	Passes        int
	SingleRepairs int
	SDRRepairs    int
	RAIDRepairs   int
	Hash2Repairs  int
	DUELines      int
	Errors        int
}

// Add accumulates another aggregate into st — the concurrent engine
// uses it to carry lifetime totals across scrub-daemon restarts.
func (st *Stats) Add(o Stats) {
	st.Passes += o.Passes
	st.SingleRepairs += o.SingleRepairs
	st.SDRRepairs += o.SDRRepairs
	st.RAIDRepairs += o.RAIDRepairs
	st.Hash2Repairs += o.Hash2Repairs
	st.DUELines += o.DUELines
	st.Errors += o.Errors
}

// Observe folds one completed pass into the aggregate — the sharded
// scrub daemon accounts every per-shard pass through it. Errors count
// as failed passes; a failed pass contributes no repair counters.
func (st *Stats) Observe(p Pass) {
	st.Passes++
	if p.Err != nil {
		st.Errors++
		return
	}
	st.SingleRepairs += p.Report.SingleRepairs
	st.SDRRepairs += p.Report.SDRRepairs
	st.RAIDRepairs += p.Report.RAIDRepairs
	st.Hash2Repairs += p.Report.Hash2Repairs
	st.DUELines += len(p.Report.DUELines)
}

// Restore-cycle mode: a kill/restore chaos cycle for the persistence
// layer. Engine A runs a hotspot campaign under concurrent shadow-
// verified load with retirement, quarantine, storm control, and the
// background checkpoint daemon all armed. Mid-storm the harness cuts a
// final baseline checkpoint, writes one more generation on top, then
// truncates the current snapshot at a seeded random byte offset —
// simulating a crash mid-write — and tears engine A down with no
// further persistence (SIGKILL semantics). Engine B, a fresh process
// stand-in, restores from the directory: it must land on the retained
// previous generation, re-map every retirement, re-arm quarantine and
// the storm ladder at the persisted level, and then survive a second
// load phase with zero SDC.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sudoku"
	"sudoku/internal/faultmodel"
	"sudoku/internal/persist"
	"sudoku/internal/rng"
)

// runRestoreCycle is the -restore-cycle entry point.
func runRestoreCycle(o options, out io.Writer) error {
	cfg := buildConfig(o)
	cfg.RetireCEThreshold = 3
	cfg.SpareLines = 4
	cfg.QuarantineAuditPasses = 2

	dir, err := os.MkdirTemp("", "sudoku-restore-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	lines := uint64(o.cachemb << 20 / 64)
	budget := chaosStormBudget(int(lines))
	camName := o.campaign
	if camName == "" {
		camName = "hotspot"
	}

	// ---- Phase 1: engine A under campaign + load, checkpointing. ----
	a, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		return err
	}
	stormCfg := chaosStormConfig(budget, int(lines), a.Shards(), o.scrub)
	if err := a.StartStormControl(stormCfg); err != nil {
		return err
	}
	cam, err := faultmodel.Load(camName, int(o.duration/o.scrub)+1, budget/2)
	if err != nil {
		return err
	}
	plan, err := sudoku.CompileCampaign(cam, a.Geometry(), o.seed)
	if err != nil {
		return err
	}
	daemonCfg := sudoku.ScrubDaemonConfig{
		Interval: o.scrub,
		Watchdog: 4*o.scrub + 200*time.Millisecond,
	}
	if err := a.StartScrub(daemonCfg); err != nil {
		return err
	}
	if err := a.StartCheckpoints(sudoku.CheckpointConfig{
		Dir:      dir,
		Interval: 2 * o.scrub,
		Watchdog: time.Second,
	}); err != nil {
		return err
	}
	stopStepper := faultmodel.Step(plan, o.scrub, false, applyFaults(a))

	var cnt chaosCounters
	phase := o.duration / 2
	deadline := time.Now().Add(phase)

	// Churn: plant stuck-at bits on controller-owned lines so the CE
	// buckets fill and retirement fires, and corrupt parity lines so
	// regions quarantine — the state the restore must preserve. No
	// rebuilds: quarantine must still be populated at the cut.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		src := rng.New(o.seed ^ 0xc4a05)
		buf := make([]byte, 64)
		stuckNext := uint64(0)
		for tick := 1; time.Now().Before(deadline); tick++ {
			time.Sleep(o.scrub)
			if tick%2 == 0 && stuckNext < 6 {
				plantStuck(a, o, lines, stuckNext, buf, &cnt)
				stuckNext++
			}
			if tick%3 == 0 {
				corruptParity(a, src, &cnt)
			}
		}
	}()
	runShadowLoad(a, o, lines, deadline, &cnt, o.seed)
	<-churnDone
	stopStepper()

	// ---- The cut: baseline checkpoint, then a simulated torn write. ----
	// Daemon stop comes first so no background save can land a newer
	// generation after the comparison baseline below.
	if err := a.StopCheckpoints(); err != nil {
		return err
	}
	if _, err := a.CheckpointNow(); err != nil {
		return fmt.Errorf("baseline checkpoint: %w", err)
	}
	baseRaw, err := os.ReadFile(filepath.Join(dir, persist.CurrentName))
	if err != nil {
		return err
	}
	base, err := persist.Decode(baseRaw)
	if err != nil {
		return fmt.Errorf("baseline snapshot does not decode: %w", err)
	}
	baseRetired, baseQuar := stateTotals(base)
	if baseRetired == 0 {
		return fmt.Errorf("restore-cycle: no lines retired before the cut (stuck planted %d) — nothing to preserve", cnt.stuckPlanted.Load())
	}
	if baseQuar == 0 {
		return fmt.Errorf("restore-cycle: no regions quarantined before the cut (parity faults %d) — nothing to preserve", cnt.parityFaults.Load())
	}
	// One more generation demotes the baseline to snapshot.prev, then a
	// seeded truncation of snapshot.current anywhere inside the file
	// simulates the crash mid-write that the two-generation store exists
	// for: restore must reject the torn current and land on prev.
	if _, err := a.CheckpointNow(); err != nil {
		return fmt.Errorf("post-baseline checkpoint: %w", err)
	}
	cur := filepath.Join(dir, persist.CurrentName)
	fi, err := os.Stat(cur)
	if err != nil {
		return err
	}
	cutOff := int64(rng.New(o.seed ^ 0x7e57).Uint64n(uint64(fi.Size())))
	if err := os.Truncate(cur, cutOff); err != nil {
		return err
	}

	// SIGKILL semantics: tear A down with no drain checkpoint. Its SDC
	// gate still applies — phase 1 ran shadow-verified.
	ha := a.Health()
	_ = a.StopScrub()
	_ = a.StopStormControl()
	if ha.Counts.SDC > 0 {
		return fmt.Errorf("restore-cycle: %d SDCs before the kill", ha.Counts.SDC)
	}

	// ---- Phase 2: engine B restores and runs. ----
	b, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		return err
	}
	if err := b.RestoreFromDir(dir); err != nil {
		return fmt.Errorf("restore-cycle: restore after torn write: %w", err)
	}
	hb := b.Health()
	if hb.RestoredAt.IsZero() {
		return fmt.Errorf("restore-cycle: Health reports no restore provenance")
	}
	if hb.SnapshotGeneration != base.Generation {
		return fmt.Errorf("restore-cycle: restored generation %d, want baseline %d from snapshot.prev (truncated current at byte %d/%d)",
			hb.SnapshotGeneration, base.Generation, cutOff, fi.Size())
	}
	if hb.RestoredLines != baseRetired {
		return fmt.Errorf("restore-cycle: restored %d lines, baseline retired %d", hb.RestoredLines, baseRetired)
	}
	if hb.RetiredLines != baseRetired || hb.QuarantinedRegions != baseQuar {
		return fmt.Errorf("restore-cycle: post-restore retired=%d quarantined=%d, baseline %d/%d",
			hb.RetiredLines, hb.QuarantinedRegions, baseRetired, baseQuar)
	}
	// Re-export B's state and compare shard-for-shard against the
	// baseline: retirement maps, spare assignments, CE buckets,
	// quarantine sets, ticks, and counters must all round-trip.
	var reBuf bytes.Buffer
	if err := b.Snapshot(&reBuf); err != nil {
		return err
	}
	re, err := persist.Decode(reBuf.Bytes())
	if err != nil {
		return err
	}
	if len(re.Shards) != len(base.Shards) {
		return fmt.Errorf("restore-cycle: re-export has %d shards, baseline %d", len(re.Shards), len(base.Shards))
	}
	for i := range base.Shards {
		if diff := shardStateDiff(base.Shards[i], re.Shards[i]); diff != "" {
			return fmt.Errorf("restore-cycle: shard %d state diverged after restore: %s", i, diff)
		}
	}
	if base.Scrub != nil && (re.Scrub == nil || re.Scrub.Cursor != base.Scrub.Cursor) {
		return fmt.Errorf("restore-cycle: scrub cursor not preserved (baseline %d)", base.Scrub.Cursor)
	}

	// Storm ladder must re-arm at exactly the persisted level. Read the
	// state immediately after start: escalation needs fresh events and
	// de-escalation needs a full quiet window, so neither can move it in
	// between.
	if err := b.StartStormControl(stormCfg); err != nil {
		return err
	}
	if base.Storm == nil {
		return fmt.Errorf("restore-cycle: baseline snapshot carries no storm section")
	}
	if got, want := b.StormState(), sudoku.StormState(base.Storm.State); got != want {
		return fmt.Errorf("restore-cycle: storm resumed at %v, persisted %v", got, want)
	}
	// Second life: scrub resumes at the persisted cursor, uniform storms
	// replace the campaign, and a fresh shadow fleet verifies every read.
	phase2Cfg := daemonCfg
	phase2Cfg.StormPerPass = storms(budget/2, b.Shards())
	if err := b.StartScrub(phase2Cfg); err != nil {
		return err
	}
	var cnt2 chaosCounters
	runShadowLoad(b, o, lines, time.Now().Add(phase), &cnt2, o.seed^0xb2)
	h2, err := settleEngine(b)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "restore-cycle: campaign=%q shards=%d phase1-ops=%d phase2-ops=%d checkpoints=%d\n",
		camName, b.Shards(), cnt.ops.Load(), cnt2.ops.Load(), a.CheckpointStats().Writes)
	fmt.Fprintf(out, "restore-cycle: cut gen=%d retired=%d quarantined=%d torn current at byte %d/%d -> prev fallback\n",
		base.Generation, baseRetired, baseQuar, cutOff, fi.Size())
	fmt.Fprintf(out, "restore-cycle: storm resumed=%v phase2 retired=%d dues-seen=%d\n",
		sudoku.StormState(base.Storm.State), h2.RetiredLines, cnt2.dues.Load())
	if err := rasGate("restore-cycle: after restore", h2); err != nil {
		return err
	}
	if h2.RetiredLines < baseRetired {
		return fmt.Errorf("restore-cycle: retirement regressed: %d < baseline %d", h2.RetiredLines, baseRetired)
	}
	fmt.Fprintln(out, "restore-cycle: PASS (prev-generation fallback, state preserved, zero SDC)")
	return nil
}

// stateTotals sums retired lines and quarantined regions across a
// snapshot's shards.
func stateTotals(s *persist.Snapshot) (retired, quarantined int) {
	for _, sh := range s.Shards {
		retired += len(sh.Retired)
		quarantined += len(sh.Quarantined)
	}
	return retired, quarantined
}

// shardStateDiff compares two persisted shard states and names the
// first divergence, or returns "" when they match.
func shardStateDiff(a, b persist.ShardState) string {
	switch {
	case a.Index != b.Index:
		return fmt.Sprintf("index %d vs %d", a.Index, b.Index)
	case a.SpareUsed != b.SpareUsed:
		return fmt.Sprintf("spareUsed %d vs %d", a.SpareUsed, b.SpareUsed)
	case a.DecayTick != b.DecayTick:
		return fmt.Sprintf("decayTick %d vs %d", a.DecayTick, b.DecayTick)
	case a.AuditTick != b.AuditTick:
		return fmt.Sprintf("auditTick %d vs %d", a.AuditTick, b.AuditTick)
	case !slices.Equal(a.Retired, b.Retired):
		return fmt.Sprintf("retirement map (%d vs %d entries)", len(a.Retired), len(b.Retired))
	case !slices.Equal(a.CEBuckets, b.CEBuckets):
		return fmt.Sprintf("CE buckets (%d vs %d entries)", len(a.CEBuckets), len(b.CEBuckets))
	case !slices.Equal(a.Quarantined, b.Quarantined):
		return fmt.Sprintf("quarantine set (%d vs %d entries)", len(a.Quarantined), len(b.Quarantined))
	case !slices.Equal(a.Counters, b.Counters):
		return "counters"
	}
	return ""
}

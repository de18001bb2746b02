// Campaign routing: -campaign replaces the uniform -storm scatter with
// a compiled correlated-fault plan (hotspots, bursts, weak cells,
// stuck-at cohorts), stepped one interval per scrub period. The same
// seed replays the same fault sequence.
package main

import (
	"strings"

	"sudoku"
	"sudoku/internal/faultmodel"
)

// presetList renders the built-in campaign names for the flag help.
func presetList() string {
	return strings.Join(sudoku.CampaignPresetNames(), ", ")
}

// resolveCampaign turns the -campaign flag into a compiled plan sized
// to the run (-duration/-scrub intervals, -storm base budget).
func resolveCampaign(o options, geom sudoku.FaultGeometry) (*sudoku.FaultPlan, error) {
	cam, err := faultmodel.Load(o.campaign, int(o.duration/o.scrub)+1, o.storm)
	if err != nil {
		return nil, err
	}
	return sudoku.CompileCampaign(cam, geom, o.seed)
}

// boundedPressure reports whether the campaign's clustered pressure
// ends before the campaign does — the shape whose storm response must
// both peak and fully de-escalate within the run.
func boundedPressure(cam sudoku.FaultCampaign) bool {
	for _, ev := range cam.Events {
		if (ev.Kind == sudoku.FaultHotspot || ev.Kind == sudoku.FaultBurst) &&
			ev.End > 0 && ev.End < cam.Intervals {
			return true
		}
	}
	return false
}

// applyFaults adapts an engine to the shared campaign stepper
// (faultmodel.Step), which fires one plan interval per scrub period.
func applyFaults(eng engine) func(sudoku.FaultIntervalPlan) {
	return func(ip sudoku.FaultIntervalPlan) { _, _ = eng.ApplyFaults(ip) }
}

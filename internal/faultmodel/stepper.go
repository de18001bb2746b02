package faultmodel

import (
	"fmt"
	"os"
	"slices"
	"time"
)

// Load resolves a campaign by name: a preset name (PresetNames) is
// sized to intervals with base expected faults per interval (floored
// at 1, so a zero storm budget still yields a valid preset); anything
// else is read as a JSON campaign file whose own interval count
// stands.
func Load(name string, intervals, base int) (Campaign, error) {
	if slices.Contains(PresetNames(), name) {
		return Preset(name, intervals, max(base, 1))
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return Campaign{}, fmt.Errorf("campaign %q: %w", name, err)
	}
	c, err := Parse(data)
	if err != nil {
		return Campaign{}, fmt.Errorf("campaign %q: %w", name, err)
	}
	return c, nil
}

// Step runs plan against the wall clock on its own goroutine: interval
// i is handed to apply at i×period after the call, interval 0
// immediately. The plan wraps around for as long as the stepper runs,
// or, with once, retires after its last interval so a storm ladder
// driven by it can decay back to normal.
//
// The schedule is anchored to the clock, not to completed applies:
// when an apply outruns its period (shard-lock contention), the
// stepper skips the intervals whose slot has already passed rather
// than letting the whole plan, and any bounded burst window in it,
// dilate. The returned stop function joins the goroutine; it is safe
// to call after a once-plan has retired.
func Step(plan *Plan, period time.Duration, once bool, apply func(IntervalPlan)) (stop func()) {
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(doneCh)
		n := plan.Intervals()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for i := 0; !once || i < n; {
			select {
			case <-stopCh:
				return
			case <-timer.C:
			}
			ip, err := plan.At(i % n)
			if err != nil {
				return
			}
			apply(ip)
			i = max(i+1, int(time.Since(start)/period))
			timer.Reset(time.Until(start.Add(time.Duration(i) * period)))
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

package faultmodel

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestLoad(t *testing.T) {
	c, err := Load("hotspot", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Intervals != 16 {
		t.Fatalf("preset sized to %d intervals, want 16", c.Intervals)
	}
	path := filepath.Join(t.TempDir(), "c.json")
	if err := os.WriteFile(path, []byte(`{"name":"f","intervals":3,"base_faults":5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err = Load(path, 16, 40); err != nil || c.Intervals != 3 || c.BaseFaults != 5 {
		t.Fatalf("file campaign = %+v, %v", c, err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json"), 16, 40); err == nil {
		t.Fatal("missing campaign file accepted")
	}
}

// TestStepOnceAppliesEveryInterval pins the schedule: under once, every
// interval 0..n-1 is applied exactly once, in order, starting with
// interval 0 at the start instant rather than one period later.
func TestStepOnceAppliesEveryInterval(t *testing.T) {
	cam, err := Preset("burst", 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(cam, testGeom, 1)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		got []int
	)
	all := make(chan struct{})
	stop := Step(plan, 50*time.Millisecond, true, func(ip IntervalPlan) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, ip.Index)
		if len(got) == plan.Intervals() {
			close(all)
		}
	})
	select {
	case <-all:
	case <-time.After(5 * time.Second):
	}
	stop()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != plan.Intervals() {
		t.Fatalf("applied intervals %v, want each of 0..%d once", got, plan.Intervals()-1)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("applied intervals %v, want each of 0..%d once in order", got, plan.Intervals()-1)
		}
	}
}

// TestStepWrapsAndStops checks the wrapping mode cycles past the plan
// end and that stop joins the goroutine: no apply after it returns.
func TestStepWrapsAndStops(t *testing.T) {
	cam, err := Preset("uniform", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(cam, testGeom, 1)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		got []int
	)
	wrapped := make(chan struct{})
	stop := Step(plan, time.Millisecond, false, func(ip IntervalPlan) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, ip.Index)
		if len(got) == 3 {
			close(wrapped)
		}
	})
	select {
	case <-wrapped:
	case <-time.After(5 * time.Second):
		t.Fatal("stepper never wrapped past the plan end")
	}
	stop()
	mu.Lock()
	n := len(got)
	mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("apply ran after stop returned: %v", got)
	}
	for _, idx := range got {
		if idx < 0 || idx >= plan.Intervals() {
			t.Fatalf("interval index %d outside the plan", idx)
		}
	}
}

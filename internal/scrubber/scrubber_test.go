package scrubber

import (
	"errors"
	"testing"
	"time"

	"sudoku/internal/cache"
	"sudoku/internal/core"
	"sudoku/internal/rng"
)

func TestStatsObserveAndAdd(t *testing.T) {
	var st Stats
	st.Observe(Pass{Report: cache.ScrubReport{
		SingleRepairs: 3, SDRRepairs: 1, RAIDRepairs: 2, Hash2Repairs: 1,
		DUELines: []int{7},
	}})
	want := Stats{Passes: 1, SingleRepairs: 3, SDRRepairs: 1, RAIDRepairs: 2, Hash2Repairs: 1, DUELines: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	st.Add(want)
	want = Stats{Passes: 2, SingleRepairs: 6, SDRRepairs: 2, RAIDRepairs: 4, Hash2Repairs: 2, DUELines: 2}
	if st != want {
		t.Fatalf("after Add: stats = %+v, want %+v", st, want)
	}
}

func TestErrorsCountedNotFatal(t *testing.T) {
	var st Stats
	st.Observe(Pass{Err: errors.New("boom"), Report: cache.ScrubReport{SingleRepairs: 5}})
	if want := (Stats{Passes: 1, Errors: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v (a failed pass contributes no repairs)", st, want)
	}
	st.Observe(Pass{Report: cache.ScrubReport{SingleRepairs: 2}})
	if st.Passes != 2 || st.Errors != 1 || st.SingleRepairs != 2 {
		t.Fatalf("accounting stopped after an error pass: %+v", st)
	}
}

// TestEndToEndWithRealCache folds real scrub passes over the functional
// STTRAM cache, each preceded by an interval of injected faults, into
// Stats — a soak in miniature.
func TestEndToEndWithRealCache(t *testing.T) {
	ccfg := cache.DefaultConfig()
	ccfg.Lines = 1 << 14
	ccfg.GroupSize = 64
	ccfg.Protection = core.ProtectionZ
	llc, err := cache.New(ccfg, fixedMem{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for i := uint64(0); i < 256; i++ {
		if _, err := llc.Write(0, i*64, data); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(77)
	var st Stats
	for pass := 0; pass < 20; pass++ {
		if err := llc.InjectRandomFaults(r, 40); err != nil {
			t.Fatal(err)
		}
		report, err := llc.Scrub()
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		st.Observe(Pass{Report: report})
	}
	if st.Passes != 20 || st.SingleRepairs == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DUELines != 0 {
		t.Fatalf("scattered singles produced %d DUEs", st.DUELines)
	}
	// Data still intact after 800 injected faults and 20 scrubs.
	for i := uint64(0); i < 256; i++ {
		got, _, err := llc.Read(0, i*64)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != 0 {
				t.Fatalf("line %d corrupted", i)
			}
		}
	}
}

type fixedMem struct{}

func (fixedMem) Access(_ time.Duration, _ uint64, _ bool) time.Duration {
	return 50 * time.Nanosecond
}

package sudoku

// Contended-read gate: at 16 goroutines the seqlock fast path must
// sustain at least the locked baseline's throughput (in practice it is
// several times faster — BENCH_hotpath.json records the multiple).
// Real contention needs real parallelism, so the gate skips on a
// single-CPU run; CI's bench-smoke step runs it with GOMAXPROCS=4.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// contendedOps counts resident read hits completed by g goroutines in
// a fixed window against a 64-line working set.
func contendedOps(t *testing.T, disableFast bool, g int, window time.Duration) int64 {
	t.Helper()
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 8
	cfg.DisableFastReads = disableFast
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint64, 64)
	data := make([]byte, len(addrs)*64)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	if errs, err := c.WriteBatch(addrs, data); err != nil || errs != nil {
		t.Fatalf("prefill: errs=%v err=%v", errs, err)
	}
	var ops atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			var n int64
			for i := 0; !stop.Load(); i++ {
				if err := c.ReadInto(addrs[(w+i)%len(addrs)], buf); err != nil {
					t.Error(err)
					break
				}
				n++
			}
			ops.Add(n)
		}(w)
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	return ops.Load()
}

func TestReadContendedFastBeatsLocked(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 CPU for real lock contention (CI runs this with GOMAXPROCS=4)")
	}
	const (
		goroutines = 16
		window     = 150 * time.Millisecond
		trials     = 3
	)
	// Interleave the arms, alternating which goes first, so background
	// load from other test processes lands on both sides alike; each arm
	// keeps its best trial.
	var locked, fast int64
	for i := 0; i < trials; i++ {
		for _, disable := range [2]bool{i%2 == 0, i%2 != 0} {
			n := contendedOps(t, disable, goroutines, window)
			if disable {
				locked = max(locked, n)
			} else {
				fast = max(fast, n)
			}
		}
	}
	t.Logf("16-goroutine contended reads per %v: fast=%d locked=%d (%.2fx)",
		window, fast, locked, float64(fast)/float64(locked))
	if fast < locked {
		t.Errorf("seqlock fast path slower than locked baseline under contention: fast=%d < locked=%d", fast, locked)
	}
}

package main

import (
	"runtime"
	"sync"
	"time"

	"sudoku"
)

// scrubInterval is the paper's scrub period, also sudoku-cached's
// default.
const scrubInterval = 20 * time.Millisecond

// engineConfig is the engine sudoku-cached builds from -cachemb and
// -seed at its defaults: the paper's geometry with the RAID group
// shrunk until GroupSize² fits the line count.
func engineConfig(cacheMB int, seed uint64) sudoku.Config {
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = cacheMB
	cfg.Seed = seed
	for lines := cacheMB << 20 / lineBytes; lines < cfg.GroupSize*cfg.GroupSize; {
		cfg.GroupSize /= 2
	}
	return cfg
}

// scrubProbe records every per-shard scrub pass the daemon reports.
type scrubProbe struct {
	mu     sync.Mutex
	since  time.Time
	took   map[int]time.Duration // busy time per rotation
	busy   time.Duration
	passes int
}

func newScrubProbe() *scrubProbe { return &scrubProbe{took: make(map[int]time.Duration)} }

func (p *scrubProbe) onPass(ps sudoku.ScrubPass) {
	p.mu.Lock()
	p.took[ps.Rotation] += ps.Took
	p.busy += ps.Took
	p.passes++
	p.mu.Unlock()
}

// reset starts a new observation interval.
func (p *scrubProbe) reset() {
	p.mu.Lock()
	clear(p.took)
	p.busy, p.passes, p.since = 0, 0, time.Now()
	p.mu.Unlock()
}

// read returns the median busy time of a full rotation over every
// shard, and the fraction of one CPU's wall time spent scrubbing since
// reset.
func (p *scrubProbe) read() (passMs, share float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	xs := make([]float64, 0, len(p.took))
	for _, d := range p.took {
		xs = append(xs, float64(d.Nanoseconds())/1e6)
	}
	return median(xs), frac(p.busy.Seconds(), time.Since(p.since).Seconds())
}

// stormSampler polls the storm ladder and counts samples spent above
// Normal.
type stormSampler struct {
	stop          chan struct{}
	done          chan struct{}
	mu            sync.Mutex
	samples, high int
}

func startStormSampler(eng *sudoku.Concurrent) *stormSampler {
	s := &stormSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				st := eng.StormState()
				s.mu.Lock()
				s.samples++
				if st != sudoku.StormNormal {
					s.high++
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// take returns the elevated fraction since the last take and restarts
// the count.
func (s *stormSampler) take() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := frac(float64(s.high), float64(s.samples))
	s.samples, s.high = 0, 0
	return f
}

func (s *stormSampler) close() {
	close(s.stop)
	<-s.done
}

// startDaemons starts storm control and the scrub daemon the way
// sudoku-cached does, injecting flipsPerInterval uniform faults across
// each scrub interval.
func startDaemons(eng *sudoku.Concurrent, flipsPerInterval int, probe *scrubProbe) error {
	if err := eng.StartStormControl(sudoku.StormConfig{MinInterval: scrubInterval / 4}); err != nil {
		return err
	}
	dc := sudoku.ScrubDaemonConfig{Interval: scrubInterval, Watchdog: 10 * scrubInterval, OnPass: probe.onPass}
	if flipsPerInterval > 0 {
		dc.StormPerPass = max(1, flipsPerInterval/eng.Shards())
	}
	if err := eng.StartScrub(dc); err != nil {
		_ = eng.StopStormControl()
		return err
	}
	return nil
}

func stopDaemons(eng *sudoku.Concurrent) {
	_ = eng.StopScrub()
	_ = eng.StopStormControl()
}

// setupEngine builds engine-paper-ber's 16 MB engine. The workers
// prefill it before the scrub daemon and the paper-BER fault injection
// start (prefill under faults would run at the faulted op rate for half
// a million lines); warm-up and measurement run with both.
func setupEngine(s spec, seed uint64) (*target, error) {
	eng, err := sudoku.NewConcurrent(engineConfig(engineMB, seed))
	if err != nil {
		return nil, err
	}
	probe := newScrubProbe()
	t := &target{spec: s, eng: eng, probe: probe}
	for i := 0; i < s.workers; i++ {
		w := newWorker(s, seed, i)
		w.exec = engineExec(eng)
		t.workers = append(t.workers, w)
	}
	t.ready = func() error { return startDaemons(eng, paperFlipsPerInterval(), probe) }
	t.close = func() {
		stopDaemons(eng)
		// Drop the engine before the next set-up builds one, so peak
		// RSS reflects one engine.
		t.eng, t.workers = nil, nil
		runtime.GC()
	}
	return t, nil
}

// engineExec performs a group of single-line calls, timed together so
// one clock pair covers the whole group; data is prepared before and
// verified after the timed region.
func engineExec(eng *sudoku.Concurrent) func(w *worker, o *op) time.Duration {
	return func(w *worker, o *op) time.Duration {
		var took time.Duration
		if o.write {
			for i, l := range o.lines {
				w.vers[i] = w.sh.nextWrite(l, w.buf[i*lineBytes:(i+1)*lineBytes])
			}
			t0 := time.Now()
			for i, l := range o.lines {
				w.errs[i] = eng.Write((w.base+l)*lineBytes, w.buf[i*lineBytes:(i+1)*lineBytes])
			}
			took = time.Since(t0)
			for i := range o.lines {
				w.commit(o, i, w.errs[i])
			}
		} else {
			t0 := time.Now()
			for i, l := range o.lines {
				w.errs[i] = eng.ReadInto((w.base+l)*lineBytes, w.buf[i*lineBytes:(i+1)*lineBytes])
			}
			took = time.Since(t0)
			for i, l := range o.lines {
				if w.errs[i] == nil {
					w.verify(l, w.buf[i*lineBytes:(i+1)*lineBytes])
				}
			}
		}
		for i := range o.lines {
			w.countOp(w.errs[i])
		}
		return took
	}
}

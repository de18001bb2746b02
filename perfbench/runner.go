package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sudoku"
	"sudoku/client"
	"sudoku/internal/server/wire"
)

// worker is one closed-loop load generator: its op stream, the shadow
// of its domain, and what it observed.
type worker struct {
	id   int
	spec spec
	st   *stream
	sh   *shadow
	// base is the domain's first line (tenant-relative on the wire).
	base uint64
	// exec performs one op against the target and returns the time the
	// target calls took; it verifies reads and records outcomes.
	exec func(w *worker, o *op) time.Duration

	buf, exp []byte
	vers     []uint32
	errs     []error
	addrs    []uint64

	// Outcome counters, reset by resetCounts: ops counts attempted
	// requests (single-line engine calls, or wire requests), failed
	// those that returned an error.
	ops, failed, shed, due, sdc int64
	firstSDC                    string
	// reads and writes hold, while record is set, the time of every
	// timed call (or group of engine calls) whose requests all
	// succeeded; a failed op's time is not a latency of the program's
	// service.
	record        bool
	reads, writes latHist
	// done counts completed (successful) requests, read by the window's
	// sampler.
	done atomic.Int64
}

func newWorker(s spec, seed uint64, id int) *worker {
	n := s.batch * s.group
	return &worker{
		id:    id,
		spec:  s,
		st:    newStream(s, seed, id),
		sh:    newShadow(id, s.domains[id][0], s.domains[id][1]),
		base:  s.domains[id][0],
		buf:   make([]byte, n*lineBytes),
		exp:   make([]byte, lineBytes),
		vers:  make([]uint32, n),
		errs:  make([]error, n),
		addrs: make([]uint64, n),
	}
}

func (w *worker) resetCounts() {
	w.ops, w.failed, w.shed, w.due, w.sdc = 0, 0, 0, 0, 0
	w.reads, w.writes = latHist{}, latHist{}
}

// commit records the outcome of line i of a write op in the shadow.
func (w *worker) commit(o *op, i int, err error) {
	if err == nil {
		w.sh.ver[o.lines[i]] = w.vers[i]
	} else {
		w.sh.forget(o.lines[i])
	}
}

// verify checks read data for line against the shadow; a mismatch is
// silent data corruption.
func (w *worker) verify(line uint64, got []byte) {
	if !w.sh.expect(line, w.exp) {
		return
	}
	if string(got) != string(w.exp) {
		w.sdc++
		if w.firstSDC == "" {
			w.firstSDC = fmt.Sprintf("worker %d line %d (domain base %d): read %x, want %x",
				w.id, line, w.base, got[:8], w.exp[:8])
		}
	}
}

// step runs the next op of the worker's stream and records its latency
// if every request of it succeeded.
func (w *worker) step() {
	var o op
	w.st.next(&o)
	ops, failed := w.ops, w.failed
	d := w.exec(w, &o)
	w.done.Add(w.ops - ops - (w.failed - failed))
	if !w.record || w.failed != failed {
		return
	}
	if o.write {
		w.writes.add(d.Nanoseconds())
	} else {
		w.reads.add(d.Nanoseconds())
	}
}

// prefill writes version 1 of every line of the worker's domain through
// the workload's own request shape.
func (w *worker) prefill() {
	n := uint64(w.spec.batch * w.spec.group)
	lines := make([]uint64, n)
	total := w.sh.ver
	for start := uint64(0); start < uint64(len(total)); start += n {
		k := min(n, uint64(len(total))-start)
		for i := uint64(0); i < k; i++ {
			lines[i] = start + i
		}
		w.exec(w, &op{write: true, lines: lines[:k]})
	}
}

// runAll runs fn on every worker concurrently and waits for all.
func runAll(ws []*worker, fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// sliceEvery is the length of the sub-intervals a window is cut into.
const sliceEvery = 500 * time.Millisecond

// window is what one measured interval observed.
type window struct {
	elapsed float64 // seconds
	// ops counts attempted requests, failed those that returned an
	// error; shed and due are kinds of failure.
	ops, failed, shed, due, sdc int64
	firstSDC                    string
	// reads and writes hold the nanoseconds of every successful timed
	// call or group (see worker.step).
	reads, writes latHist
	// server and client are CPU seconds of the engine's host and of the
	// load generator, and cpu of both together (see cpuProbe).
	server, client, cpu float64
	host                procCounters
	steal               float64
	mallocs, allocBytes float64
	gcs                 float64
	slices              []slice
}

// completed is the window's successful requests, the denominator of
// every per-op figure.
func (win *window) completed() int64 { return win.ops - win.failed }

// slice is one sliceEvery-long part of a window.
type slice struct {
	ops            int64 // completed
	server, client float64
	steal          float64
}

// cpuSeconds reads the CPU seconds of the process hosting the engine
// (server) and of the load generator (client). On the wire the server
// is the daemon, every thread of it, and the client this process. In
// process (hostPID 0) they are one process, so both are its CPU time;
// nothing pins a worker to a thread to split it further, since a
// locked thread changes how the program is scheduled.
func cpuSeconds(hostPID int) (server, client float64, err error) {
	if hostPID == 0 {
		c := selfCPU()
		return c, c, nil
	}
	server, err = taskCPU(hostPID)
	return server, selfCPU(), err
}

// measureWindow runs every worker's closed loop for d and gathers the
// interval's counters, whole and per slice. hostPID is the process
// hosting the engine, 0 for this process.
func measureWindow(ws []*worker, d time.Duration, hostPID int) (window, error) {
	for _, w := range ws {
		w.resetCounts()
		w.record = true
	}
	begin := make(chan struct{})
	var wg sync.WaitGroup
	var deadline time.Time
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-begin
			for time.Now().Before(deadline) {
				w.step()
			}
		}()
	}
	type snap struct {
		at             time.Time
		ops            int64
		server, client float64
		cpu            cpuTimes
	}
	take := func() (snap, error) {
		sv, cl, err := cpuSeconds(hostPID)
		if err != nil {
			return snap{}, err
		}
		ct, err := readCPUTimes()
		var ops int64
		for _, w := range ws {
			ops += w.done.Load()
		}
		return snap{time.Now(), ops, sv, cl, ct}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	host0, err := readProcCounters(hostPID)
	if err != nil {
		return window{}, err
	}
	s0, err := take()
	if err != nil {
		return window{}, err
	}
	snaps := []snap{s0}
	deadline = s0.at.Add(d)
	close(begin)
	tick := time.NewTicker(sliceEvery)
	for t := range tick.C {
		if !t.Before(deadline) {
			break
		}
		s, err := take()
		if err != nil {
			tick.Stop()
			wg.Wait()
			return window{}, err
		}
		snaps = append(snaps, s)
	}
	tick.Stop()
	wg.Wait()
	s1, err := take()
	if err != nil {
		return window{}, err
	}
	snaps = append(snaps, s1)
	host1, err := readProcCounters(hostPID)
	if err != nil {
		return window{}, err
	}
	runtime.ReadMemStats(&ms1)
	win := window{
		elapsed:    s1.at.Sub(s0.at).Seconds(),
		server:     s1.server - s0.server,
		client:     s1.client - s0.client,
		host:       host1.sub(host0),
		steal:      stealFrac(s0.cpu, s1.cpu),
		mallocs:    float64(ms1.Mallocs - ms0.Mallocs),
		allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
		gcs:        float64(ms1.NumGC - ms0.NumGC),
		slices:     make([]slice, len(snaps)-1),
	}
	win.cpu = win.server + win.client
	if hostPID == 0 {
		win.cpu = win.server // one process, counted once
	}
	for i := range win.slices {
		a, b := snaps[i], snaps[i+1]
		win.slices[i] = slice{ops: b.ops - a.ops, server: b.server - a.server,
			client: b.client - a.client, steal: stealFrac(a.cpu, b.cpu)}
	}
	for _, w := range ws {
		w.record = false
		win.ops += w.ops
		win.failed += w.failed
		win.shed += w.shed
		win.due += w.due
		win.sdc += w.sdc
		if win.firstSDC == "" {
			win.firstSDC = w.firstSDC
		}
		win.reads.merge(&w.reads)
		win.writes.merge(&w.writes)
	}
	return win, nil
}

// target is a set-up workload: workers bound to a daemon or an
// in-process engine, prefilled and warmed up.
type target struct {
	spec    spec
	workers []*worker
	// d is the daemon (wire workloads); eng the in-process engine.
	d     *daemon
	eng   *sudoku.Concurrent
	probe *scrubProbe
	// ready, when set, runs between prefill and warm-up.
	ready func() error
	close func()
}

// hostPID is the process hosting the engine: the daemon, or 0 for this
// process.
func (t *target) hostPID() int {
	if t.d != nil {
		return t.d.pid()
	}
	return 0
}

// alive reports whether the target can still serve: a daemon that
// exited early fails the run.
func (t *target) alive() error {
	if t.d != nil && !t.d.alive() {
		return fmt.Errorf("sudoku-cached exited during the run: %v: %s", t.d.err, t.d.output())
	}
	return nil
}

// setupCost is what one set-up took, from launch to the first timed op:
// wall seconds, and CPU seconds of the process hosting the engine plus
// this process.
type setupCost struct{ wall, cpu float64 }

// setup launches the workload's target and returns it ready for the
// first timed op, with its cost: launch, ready, prefill of every
// worker's whole domain, and warm-up.
func setup(s spec, seed uint64, bin string) (*target, setupCost, error) {
	start, self0 := time.Now(), selfCPU()
	var t *target
	var err error
	if s.engine {
		t, err = setupEngine(s, seed)
	} else {
		t, err = setupWire(s, seed, bin)
	}
	if err != nil {
		return nil, setupCost{}, err
	}
	runAll(t.workers, (*worker).prefill)
	if t.ready != nil {
		if err := t.ready(); err != nil {
			t.close()
			return nil, setupCost{}, err
		}
	}
	runAll(t.workers, func(w *worker) {
		for i := 0; i < s.warmup; i++ {
			w.step()
		}
	})
	cost := setupCost{wall: time.Since(start).Seconds(), cpu: selfCPU() - self0}
	if t.d != nil {
		// The daemon started with this set-up: all its CPU is set-up.
		daemonCPU, err := taskCPU(t.d.pid())
		if err != nil {
			t.close()
			return nil, setupCost{}, err
		}
		cost.cpu += daemonCPU
	}
	for _, w := range t.workers {
		if w.failed > 0 || w.sdc > 0 {
			t.close()
			return nil, setupCost{}, fmt.Errorf("set-up: worker %d: %d failed ops, %d SDC %s", w.id, w.failed, w.sdc, w.firstSDC)
		}
	}
	if err := t.alive(); err != nil {
		t.close()
		return nil, setupCost{}, err
	}
	return t, cost, nil
}

// setupWire starts sudoku-cached at its defaults and gives every worker
// its own client.
func setupWire(s spec, seed uint64, bin string) (*target, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	t := &target{spec: s, d: d}
	var clients []*client.Client
	for i := 0; i < s.workers; i++ {
		c := client.New(client.Options{Addr: d.addr, Codec: wire.CodecBinary, HTTPTimeout: 10 * time.Second})
		clients = append(clients, c)
		w := newWorker(s, seed, i)
		w.exec = wireExec(c, s.tenants[i])
		t.workers = append(t.workers, w)
	}
	t.close = func() {
		for _, c := range clients {
			c.Close()
		}
		d.stop()
	}
	return t, nil
}

// wireExec performs ops through a client: single-line Read/Write, or
// ReadBatch/WriteBatch for batched workloads.
func wireExec(c *client.Client, tn string) func(w *worker, o *op) time.Duration {
	ctx := context.Background()
	return func(w *worker, o *op) time.Duration {
		n := len(o.lines)
		addrs := w.addrs[:n]
		for i, l := range o.lines {
			addrs[i] = (w.base + l) * lineBytes
		}
		data := w.buf[:n*lineBytes]
		if o.write {
			for i, l := range o.lines {
				w.vers[i] = w.sh.nextWrite(l, data[i*lineBytes:(i+1)*lineBytes])
			}
		}
		var err error
		var got []byte
		t0 := time.Now()
		switch {
		case n == 1 && o.write:
			err = c.Write(ctx, tn, addrs[0], data)
		case n == 1:
			got, err = c.Read(ctx, tn, addrs[0])
		case o.write:
			err = c.WriteBatch(ctx, tn, addrs, data)
		default:
			got, err = c.ReadBatch(ctx, tn, addrs)
		}
		took := time.Since(t0)
		// A batch counts as one op: its outcome is the request's.
		for i := range o.lines {
			if !o.write && (err == nil || len(got) == n*lineBytes) {
				var ie *client.ItemError
				if err == nil || (errors.As(err, &ie) && ie.Errs[i] == "") {
					w.verify(o.lines[i], got[i*lineBytes:(i+1)*lineBytes])
				}
			}
		}
		if o.write {
			for i := range o.lines {
				w.commit(o, i, err)
			}
		}
		w.countOp(err)
		return took
	}
}

// countOp records one request's outcome.
func (w *worker) countOp(err error) {
	w.ops++
	if err == nil {
		return
	}
	w.failed++
	var ie *client.ItemError
	switch {
	case errors.Is(err, sudoku.ErrUncorrectable), errors.As(err, &ie):
		w.due++
	default:
		if _, ok := client.IsShed(err); ok {
			w.shed++
		}
	}
}

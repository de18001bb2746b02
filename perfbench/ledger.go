package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"sudoku"
	"sudoku/internal/bitvec"
	"sudoku/internal/ecc/crc"
	"sudoku/internal/ecc/hamming"
)

// traceOps is how many ops of the workload's stream each layer replays.
func traceOps(s spec) int {
	switch {
	case s.engine:
		return 4000 // groups of 16 calls
	case s.batch > 1:
		return 400
	}
	return 3000
}

// traceRun is the per-layer run. It sets the workload up once, measures
// it untraced at its own concurrency (counters, host noise) and at one
// worker (the ledger's baseline), then replays worker 0's seeded op
// stream through each layer in turn with a span around every call:
// wire encode/decode, the server handler in memory, the engine, and the
// client (against the daemon, and against an in-process stub that
// isolates the client and the h2c round trip). It prints the ledger and
// returns every per-layer metric.
func traceRun(s spec, o options, rec *record, out io.Writer) error {
	t, cost, err := setup(s, o.seed, o.daemon)
	if err != nil {
		return err
	}
	defer t.close()
	rec.SetupRuns, rec.SetupWall = []float64{cost.cpu}, []float64{cost.wall}
	total := time.Duration(o.seconds) * time.Second
	m := perLayerZero()

	// Untraced at the workload's concurrency.
	var storm *stormSampler
	var st0 sudoku.Stats
	if s.engine {
		storm = startStormSampler(t.eng)
		defer storm.close()
		t.probe.reset()
		st0 = t.eng.Stats()
	}
	gc0, err := hostGCs(t)
	if err != nil {
		return err
	}
	cal0 := calibrate()
	win, err := measureWindow(t.workers, total*4/10, t.hostPID())
	if err != nil {
		return err
	}
	cal1 := calibrate()
	gc1, err := hostGCs(t)
	if err != nil {
		return err
	}
	if err := t.alive(); err != nil {
		return err
	}
	done := win.completed()
	m.set("ops_per_s", frac(float64(done), win.elapsed))
	m.set("read_p99_us", usPerCall(&win.reads, 0.99, s.group))
	m.set("host.steal_frac", win.steal)
	m.set("host.calib_wall_over_cpu", (cal0.wallOverCPU+cal1.wallOverCPU)/2)
	m.set("host.clock_ns", clockCostNs())
	m.set("failed_frac", frac(float64(win.failed), float64(win.ops)))
	m.set("admission.shed_frac", frac(float64(win.shed), float64(win.ops)))
	m.set("server.syscalls_per_op", perOp(win.host.syscalls, done))
	m.set("server.ctx_switches_per_op", perOp(win.host.ctxsw, done))
	m.set("server.gc_per_kop", perOp(1000*(gc1-gc0), done))
	m.set("client.allocs_per_op", perOp(win.mallocs, done))
	m.set("client.bytes_per_op", perOp(win.allocBytes, done))
	if s.engine {
		setEngineCounters(m, t.eng.Stats(), st0)
		passMs, share := t.probe.read()
		m.set("scrub.pass_ms", passMs)
		m.set("scrub.cpu_share", share)
		m.set("storm.elevated_frac", storm.take())
	}
	recordWindow(rec, win, s.group)
	noteHost(rec, win, cal0, cal1)

	// Untraced at one worker: the ledger's baseline (the window above
	// when the workload has one worker).
	w0 := t.workers[0]
	win1 := win
	sdc, attempted, failed := win.sdc, win.ops, win.failed
	if len(t.workers) > 1 {
		if win1, err = measureWindow(t.workers[:1], total*2/10, t.hostPID()); err != nil {
			return err
		}
		sdc, attempted, failed = sdc+win1.sdc, attempted+win1.ops, failed+win1.failed
	}
	if win.reads.n == 0 || win1.reads.n == 0 {
		return fmt.Errorf("traced run completed %d and %d reads untraced: nothing to measure", win.reads.n, win1.reads.n)
	}
	base := usPerCall(&win1.reads, 0.5, s.group)
	m.set("ledger.untraced_read_p50_1w_us", base)

	ops := replayOps(s, o.seed, traceOps(s))
	var l ledger
	if s.engine {
		l, err = traceEngineLayers(t, w0, ops, m)
	} else {
		l, err = traceWireLayers(t, w0, ops, m)
	}
	if err != nil {
		return err
	}
	l.base = base
	m.set("ledger.remainder_us", l.remainder())
	m.set("ledger.trace_overhead_us", l.traced-base)
	l.print(out, s.name)

	if err := t.alive(); err != nil {
		return err
	}
	rec.SDC = sdc + l.sdc
	rec.FirstSDC = firstNonEmpty(win.firstSDC, win1.firstSDC, w0.firstSDC)
	rec.Result = result{
		Correct:   correct(rec.SDC, failed+l.failed, attempted+l.ops),
		Attempted: attempted + l.ops,
		Failed:    failed + l.failed,
		Metrics:   map[string]metric(m),
	}
	return nil
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

// perLayer lists every per-layer metric with its unit. A layer a
// workload does not pass through reports 0 (the wire, handler, session,
// transport and client rows on engine-paper-ber).
var perLayer = []struct{ name, unit string }{
	{"crc.ns_per_line", "ns"},
	{"hamming.decode_ns_per_line", "ns"},
	{"engine.read_ns", "ns"},
	{"engine.write_ns", "ns"},
	{"engine.batch_ns_per_line", "ns"},
	{"engine.seqlock_hit_ratio", "frac"},
	{"engine.miss_ratio", "frac"},
	{"engine.ecc1_per_kop", "count"},
	{"engine.raid_per_kop", "count"},
	{"engine.sdr_per_kop", "count"},
	{"engine.due_per_kop", "count"},
	{"scrub.pass_ms", "ms"},
	{"scrub.cpu_share", "frac"},
	{"storm.elevated_frac", "frac"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_op", "bytes"},
	{"wire.allocs_per_op", "count"},
	{"handler.self_ns", "ns"},
	{"handler.allocs_per_op", "count"},
	{"session.wait_us", "us"},
	{"admission.shed_frac", "frac"},
	{"transport.rtt_us", "us"},
	{"server.syscalls_per_op", "count"},
	{"server.ctx_switches_per_op", "count"},
	{"server.gc_per_kop", "count"},
	{"client.self_us", "us"},
	{"client.allocs_per_op", "count"},
	{"client.bytes_per_op", "bytes"},
	{"failed_frac", "frac"},
	{"ops_per_s", "1/s"},
	{"read_p99_us", "us"},
	{"host.steal_frac", "frac"},
	{"host.calib_wall_over_cpu", "ratio"},
	{"host.clock_ns", "ns"},
	{"ledger.untraced_read_p50_1w_us", "us"},
	{"ledger.remainder_us", "us"},
	{"ledger.trace_overhead_us", "us"},
}

// layerMetrics holds a traced run's per-layer values.
type layerMetrics map[string]metric

func perLayerZero() layerMetrics {
	m := make(layerMetrics, len(perLayer))
	for _, p := range perLayer {
		m[p.name] = metric{0, p.unit}
	}
	return m
}

// set stores a measured value; naming an unlisted metric is a bug.
func (m layerMetrics) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

func (m layerMetrics) get(name string) float64 { return m[name].Value }

// hostGCs returns the GC cycles completed by the process hosting the
// engine: the daemon's sudoku_gc_pauses_total, or this process's count.
func hostGCs(t *target) (float64, error) {
	if t.d == nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC), nil
	}
	samples, err := t.d.scrape()
	if err != nil {
		return 0, fmt.Errorf("scrape sudoku-cached: %w", err)
	}
	v, ok := samples["sudoku_gc_pauses_total"]
	if !ok {
		return 0, fmt.Errorf("sudoku-cached /metrics has no sudoku_gc_pauses_total")
	}
	return v, nil
}

// setEngineCounters turns an engine Stats delta into the engine ratios.
func setEngineCounters(m layerMetrics, now, before sudoku.Stats) {
	d := func(a, b int64) float64 { return float64(a - b) }
	accesses := d(now.Hits, before.Hits) + d(now.Misses, before.Misses)
	ops := d(now.Reads, before.Reads) + d(now.Writes, before.Writes)
	seq, fb := d(now.SeqlockReads, before.SeqlockReads), d(now.SeqlockFallbacks, before.SeqlockFallbacks)
	m.set("engine.seqlock_hit_ratio", frac(seq, seq+fb))
	m.set("engine.miss_ratio", frac(d(now.Misses, before.Misses), accesses))
	m.set("engine.ecc1_per_kop", 1000*frac(d(now.SingleRepairs, before.SingleRepairs), ops))
	m.set("engine.raid_per_kop", 1000*frac(d(now.RAIDRepairs, before.RAIDRepairs), ops))
	m.set("engine.sdr_per_kop", 1000*frac(d(now.SDRRepairs, before.SDRRepairs), ops))
	m.set("engine.due_per_kop", 1000*frac(d(now.UncorrectableDUEs, before.UncorrectableDUEs), ops))
}

// replayOps returns n ops over worker 0's domain for seed, each with
// its own copy of the lines. They come from a stream of their own: the
// run has already executed worker 0's first ops, and replaying those
// would find their lines freshly cached.
func replayOps(s spec, seed uint64, n int) []op {
	st := newStream(s, seed, 0)
	st.r = splitmix{streamSeed(s.name+"/replay", seed, 0)}
	ops := make([]op, n)
	for i := range ops {
		var o op
		st.next(&o)
		ops[i] = op{write: o.write, lines: append([]uint64(nil), o.lines...)}
	}
	return ops
}

// plan assigns every write of ops its next version in sh and records,
// for every read, the version each line should then hold — the shadow
// walk of a replay whose writes all succeed. data holds each op's write
// payload (nil for reads).
type plan struct {
	vers [][]uint32
	data [][]byte
}

func makePlan(ops []op, sh *shadow) plan {
	p := plan{vers: make([][]uint32, len(ops)), data: make([][]byte, len(ops))}
	for i, o := range ops {
		p.vers[i] = make([]uint32, len(o.lines))
		if o.write {
			p.data[i] = make([]byte, len(o.lines)*lineBytes)
		}
		for j, l := range o.lines {
			if o.write {
				v := sh.nextWrite(l, p.data[i][j*lineBytes:(j+1)*lineBytes])
				sh.ver[l] = v
				p.vers[i][j] = v
			} else {
				p.vers[i][j] = sh.ver[l]
			}
		}
	}
	return p
}

// check verifies read data of op i against the plan, counting SDC.
func (p plan) check(sh *shadow, i int, o op, got []byte, sdc *int64) {
	for j, l := range o.lines {
		p.checkLine(sh, i, j, l, got[j*lineBytes:(j+1)*lineBytes], sdc)
	}
}

// checkLine verifies line j (line number l) of op i.
func (p plan) checkLine(sh *shadow, i, j int, l uint64, got []byte, sdc *int64) {
	exp := make([]byte, lineBytes)
	if sh.content(l, p.vers[i][j], exp) && !bytes.Equal(got, exp) {
		*sdc++
	}
}

// ledger reconciles the per-layer self times of one read op (µs)
// against the untraced single-worker read p50.
type ledger struct {
	rows   []ledgerRow
	base   float64 // untraced read p50 at one worker
	traced float64 // the same op timed with spans on
	note   string
	// Replay outcomes.
	ops, failed, sdc int64
}

type ledgerRow struct {
	layer string
	us    float64
}

func (l *ledger) add(layer string, us float64) { l.rows = append(l.rows, ledgerRow{layer, us}) }

func (l *ledger) sum() float64 {
	var s float64
	for _, r := range l.rows {
		s += r.us
	}
	return s
}

func (l *ledger) remainder() float64 { return l.base - l.sum() }

func (l *ledger) print(out io.Writer, workload string) {
	fmt.Fprintf(out, "ledger %s: read op at 1 worker, untraced p50 %.3f us\n", workload, l.base)
	for _, r := range l.rows {
		fmt.Fprintf(out, "  %-44s %10.3f us  %5.1f%%\n", r.layer, r.us, 100*frac(r.us, l.base))
	}
	rem := l.remainder()
	fmt.Fprintf(out, "  %-44s %10.3f us  %5.1f%%\n", "unattributed remainder", rem, 100*frac(rem, l.base))
	top := append([]ledgerRow(nil), l.rows...)
	sort.Slice(top, func(i, j int) bool { return top[i].us > top[j].us })
	if len(top) > 3 {
		top = top[:3]
	}
	names := make([]string, len(top))
	for i, r := range top {
		names[i] = fmt.Sprintf("%s (%.3f us)", r.layer, r.us)
	}
	fmt.Fprintf(out, "  top costs: %s\n", strings.Join(names, ", "))
	largest := 0.0
	if len(top) > 0 {
		largest = top[0].us
	}
	fmt.Fprintf(out, "  remainder below largest layer: %v\n", math.Abs(rem) < largest)
	fmt.Fprintf(out, "  tracing overhead: traced p50 %.3f us - untraced %.3f us = %.3f us\n",
		l.traced, l.base, l.traced-l.base)
	if l.note != "" {
		fmt.Fprintf(out, "  note: %s\n", l.note)
	}
}

// usSince is the µs elapsed since t0.
func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// readMedians returns the median over read ops of xs[i].
func readMedian(ops []op, xs []float64) float64 {
	var r []float64
	for i, o := range ops {
		if !o.write {
			r = append(r, xs[i])
		}
	}
	return median(r)
}

func writeMedian(ops []op, xs []float64) float64 {
	var r []float64
	for i, o := range ops {
		if o.write {
			r = append(r, xs[i])
		}
	}
	return median(r)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// kernels measures the codec kernels on the stream's own line data:
// CRC-31 over a 512-bit line and the Hamming ECC-1 decode of the
// 543-bit data‖CRC message. Each is the median of several timed loops.
func kernels(m layerMetrics) error {
	const lines, reps, loops = 64, 200, 5
	c := crc.NewCRC31()
	code, err := hamming.New(512 + c.Width())
	if err != nil {
		return err
	}
	data := make([]*bitvec.Vector, lines)
	msgs := make([]*bitvec.Vector, lines)
	checks := make([]uint64, lines)
	buf := make([]byte, lineBytes)
	for i := range data {
		pattern(buf, uint64(i), 1)
		data[i] = bitvec.FromBytes(buf)
		msgs[i] = bitvec.New(512 + c.Width())
		for w := 0; w < 8; w++ {
			if err := msgs[i].PutUint64(w*64, 64, data[i].Word(w)); err != nil {
				return err
			}
		}
		if err := msgs[i].PutUint64(512, c.Width(), c.Compute(data[i])); err != nil {
			return err
		}
		if checks[i], err = code.Encode(msgs[i]); err != nil {
			return err
		}
	}
	var sink uint64
	crcNs := make([]float64, loops)
	decNs := make([]float64, loops)
	for k := 0; k < loops; k++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, v := range data {
				sink ^= c.Compute(v)
			}
		}
		crcNs[k] = float64(time.Since(t0).Nanoseconds()) / (reps * lines)
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			for i, v := range msgs {
				res, err := code.Decode(v, checks[i])
				if err != nil {
					return err
				}
				sink ^= uint64(res.Pos)
			}
		}
		decNs[k] = float64(time.Since(t0).Nanoseconds()) / (reps * lines)
	}
	kernelSink = sink
	m.set("crc.ns_per_line", median(crcNs))
	m.set("hamming.decode_ns_per_line", median(decNs))
	return nil
}

// kernelSink keeps the kernel loops' results observable.
var kernelSink uint64

// batchProbe times ReadBatch calls of 64 distinct lines from the
// domain [base, base+n) (engine addresses) and returns ns per line.
func batchProbe(eng *sudoku.Concurrent, seed uint64, base, n uint64) (float64, error) {
	const calls, size = 200, 64
	r := splitmix{seed ^ 0xba7c4}
	addrs := make([]uint64, size)
	dst := make([]byte, size*lineBytes)
	xs := make([]float64, calls)
	for c := range xs {
		seen := map[uint64]bool{}
		for i := range addrs {
			l := r.below(n)
			for seen[l] {
				l = r.below(n)
			}
			seen[l] = true
			addrs[i] = (base + l) * lineBytes
		}
		t0 := time.Now()
		errs, err := eng.ReadBatch(addrs, dst)
		xs[c] = float64(time.Since(t0).Nanoseconds()) / size
		if err != nil {
			return 0, err
		}
		for _, e := range errs {
			if e != nil {
				return 0, fmt.Errorf("batch probe: %w", e)
			}
		}
	}
	return median(xs), nil
}

// traceEngineLayers replays worker 0's stream on the live in-process
// engine with a span around every call. An op is a group of calls, so
// like the untraced run it reports the median over groups of the mean
// call time.
func traceEngineLayers(t *target, w *worker, ops []op, m layerMetrics) (ledger, error) {
	var l ledger
	if err := kernels(m); err != nil {
		return l, err
	}
	g := float64(t.spec.group)
	p := makePlan(ops, w.sh)
	opUs, callNs := make([]float64, len(ops)), make([]float64, len(ops))
	buf := make([]byte, lineBytes)
	for i, o := range ops {
		start := time.Now()
		var sum time.Duration
		for j, ln := range o.lines {
			addr := (w.base + ln) * lineBytes
			var err error
			t0 := time.Now()
			if o.write {
				err = t.eng.Write(addr, p.data[i][j*lineBytes:(j+1)*lineBytes])
			} else {
				err = t.eng.ReadInto(addr, buf)
			}
			sum += time.Since(t0)
			l.ops++
			switch {
			case err != nil:
				l.failed++
				if o.write {
					w.sh.forget(ln)
				}
			case !o.write:
				p.checkLine(w.sh, i, j, ln, buf, &l.sdc)
			}
		}
		opUs[i] = usSince(start) / g
		callNs[i] = float64(sum.Nanoseconds()) / g
	}
	readNs, writeNs := readMedian(ops, callNs), writeMedian(ops, callNs)
	m.set("engine.read_ns", readNs)
	m.set("engine.write_ns", writeNs)
	bns, err := batchProbe(t.eng, w.sh.key, w.base, uint64(len(w.sh.ver)))
	if err != nil {
		return l, err
	}
	m.set("engine.batch_ns_per_line", bns)
	l.traced = readMedian(ops, opUs)

	// Kernel shares are estimates, not spans: one CRC check per read,
	// one ECC-1 decode per corrected line.
	crcUs := m.get("crc.ns_per_line") / 1e3
	decUs := m.get("hamming.decode_ns_per_line") / 1e3 * m.get("engine.ecc1_per_kop") / 1000
	clockUs := m.get("host.clock_ns") / 1e3 / g
	l.add("engine.read (self)", readNs/1e3-crcUs-decUs)
	l.add("crc kernel (1 per read)", crcUs)
	l.add("hamming decode (per ECC-1 fix)", decUs)
	l.add("clock pair (per group)", clockUs)
	l.note = "engine-paper-ber has no wire, handler, transport or client layer; kernel rows are kernel cost x calls per op"
	return l, nil
}

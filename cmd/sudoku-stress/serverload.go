// Server swarm mode: -server <addr> turns sudoku-stress into a client
// fleet for a running sudoku-cached daemon. Each goroutine owns a
// disjoint stripe of the tenant's namespace and shadow-verifies every
// read against what it last wrote there, so any silent corruption in
// the engine, the wire codecs, or the server's gather/scatter shows up
// as an SDC — and the run fails. A tap goroutine streams the tenant's
// RAS events for the whole run; health polling tracks the storm ladder.
//
// One runner serves both swarm shapes. The plain swarm runs for
// -duration over one connection: its data-plane client is also the
// observer. With -netchaos the data plane dials the fault proxy with
// the resilience policy armed, the phase loop decides when the fleet
// stops, and the netchaos gates join the ones below (see netchaos.go).
//
// Exit gates (all optional except the first three, which always apply):
//
//	zero SDC          every read shadow-verifies against its stripe
//	zero failures     no operation fails other than by a shed or a
//	                  per-item DUE (under -netchaos: by a typed error);
//	                  the first failure is named when the run ends
//	zero tap drops    the server dropped no tap events
//	                  (sudoku_server_tap_dropped_total) — the event pipe
//	                  must keep up with the fault storm it narrates
//	-p99gate D        fail when client-observed p99 exceeds D
//	-requireshed      fail unless the server shed at least one request
//	-requirestorm     fail unless the storm ladder left normal during
//	                  the run AND returned to normal by the end, with
//	                  at least one RAS event delivered on the tap
//	-tracegate        fail unless /debug/flightrec, merged over the
//	                  run, passes reqtrace's structural check and holds
//	                  a trace that went past ECC-1
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sudoku/client"
	"sudoku/internal/netchaos"
	"sudoku/internal/reqtrace"
	"sudoku/internal/rng"
	"sudoku/internal/server/wire"
	"sudoku/internal/telemetry"
)

// fleetResult aggregates one fleet run.
type fleetResult struct {
	ops, sheds, dues, sdcs int64
	faults                 int64 // typed errors tolerated under -netchaos
	failed                 int64 // operations that failed the mode's contract
	firstErr               error // the first of those
	elapsed                time.Duration
	hist                   telemetry.HistogramSnapshot
}

// runServerSwarm drives the remote daemon, directly or through the
// -netchaos proxy.
func runServerSwarm(o options, out io.Writer) error {
	codec := wire.CodecBinary
	if o.codec == "json" {
		codec = wire.CodecJSON
	} else if o.codec != "" && o.codec != "binary" {
		return fmt.Errorf("codec %q: want binary or json", o.codec)
	}
	if o.lines <= 0 {
		return fmt.Errorf("lines %d", o.lines)
	}
	if o.batchfrac < 0 || o.batchfrac > 1 {
		return fmt.Errorf("batchfrac %g outside [0, 1]", o.batchfrac)
	}
	if o.batch <= 0 {
		o.batch = 16
	}
	var plan netchaos.Plan
	if o.netchaos != "" {
		if o.tracegate {
			return errors.New("-tracegate is not supported with -netchaos (resets evict the recorder's ring mid-run)")
		}
		var err error
		if plan, err = netchaos.Load(o.netchaos); err != nil {
			return err
		}
	}

	// Observer plane: health poll, RAS tap and metrics scrape go
	// straight to the server, so the instruments keep reading while the
	// data plane is under network chaos.
	obs := client.New(client.Options{Addr: o.server, Codec: codec})
	defer obs.Close()
	ctx := context.Background()
	if _, err := obs.Health(ctx, o.tenant); err != nil {
		return fmt.Errorf("server %s tenant %s unreachable: %w", o.server, o.tenant, err)
	}
	label, cl := "swarm", obs
	var nc *chaosPlane
	if o.netchaos != "" {
		var err error
		if nc, err = newChaosPlane(o, plan, codec); err != nil {
			return err
		}
		defer nc.close()
		label, cl = "netchaos", nc.cl
	}

	// The tap runs for the whole load window; every event it drains is
	// one the server did not have to drop.
	tapCtx, tapCancel := context.WithCancel(ctx)
	defer tapCancel()
	stream, err := obs.Events(tapCtx, o.tenant)
	if err != nil {
		return fmt.Errorf("event tap: %w", err)
	}
	var tapWG sync.WaitGroup
	var events atomic.Int64
	tapWG.Add(1)
	go func() {
		defer tapWG.Done()
		defer stream.Close()
		for {
			if _, err := stream.Next(); err != nil {
				return
			}
			events.Add(1)
		}
	}()

	// Health poller: watches the ladder escalate and (after the run)
	// recover.
	stormRank := map[string]int{"normal": 0, "elevated": 1, "critical": 2}
	pollStorm := func() string {
		h, err := obs.Health(ctx, o.tenant)
		if err != nil {
			return ""
		}
		return h.Storm
	}
	pollCtx, pollCancel := context.WithCancel(ctx)
	defer pollCancel()
	var pollWG sync.WaitGroup
	var maxSeen atomic.Int32
	every(pollCtx, &pollWG, 50*time.Millisecond, func() {
		if s := pollStorm(); stormRank[s] > int(maxSeen.Load()) {
			maxSeen.Store(int32(stormRank[s]))
		}
	})

	// Flight-recorder poller (-tracegate only). The ring keeps just the
	// last N published traces, and a shed flood during a storm window
	// can evict an earlier deep-repair trace before the run ends — so
	// the gate folds periodic snapshots into one merged view instead of
	// trusting a single final scrape.
	flightrec := "http://" + o.server + "/debug/flightrec"
	var recMu sync.Mutex
	recMerged := make(map[string]reqtrace.TraceJSON)
	mergeRec := func(rec *reqtrace.FlightRecord) {
		recMu.Lock()
		for _, tj := range rec.Traces {
			recMerged[tj.ID] = tj
		}
		recMu.Unlock()
	}
	if o.tracegate {
		every(pollCtx, &pollWG, 250*time.Millisecond, func() {
			if rec, err := reqtrace.FetchRecord(flightrec); err == nil {
				mergeRec(rec)
			}
		})
	}

	// The stop signal: the -duration timer, or under -netchaos the
	// phase loop once the plan's timeline completes.
	var stop atomic.Bool
	var phaseWG sync.WaitGroup
	if nc != nil {
		phaseWG.Add(1)
		go func() {
			defer phaseWG.Done()
			defer stop.Store(true)
			nc.drive(o.duration, o.settle, out)
		}()
	} else {
		defer time.AfterFunc(o.duration, func() { stop.Store(true) }).Stop()
	}
	res := runFleet(ctx, o, cl, &stop, nc != nil)
	phaseWG.Wait()

	// Let the ladder settle, then take the final storm reading.
	settleUntil := time.Now().Add(o.settle)
	endStorm := "normal"
	for {
		if s := pollStorm(); s != "" {
			endStorm = s
		}
		if endStorm == "normal" || time.Now().After(settleUntil) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	pollCancel()
	pollWG.Wait()
	tapCancel()
	tapWG.Wait()
	maxStorm := "normal"
	for name, rank := range stormRank {
		if rank == int(maxSeen.Load()) {
			maxStorm = name
		}
	}

	// Final metrics scrape: shed totals and the tap-drop gate. A server
	// that went away mid-run fails it, so name the fleet's first
	// failure too.
	shedTotal, dropTotal, err := scrapeServerMetrics("http://" + o.server + "/metrics")
	if err != nil {
		return errors.Join(fmt.Errorf("metrics scrape: %w", err), res.firstErr)
	}

	fmt.Fprintf(out, "%s: server=%s tenant=%s codec=%s goroutines=%d elapsed=%v\n",
		label, o.server, o.tenant, o.codec, o.goroutines, res.elapsed.Round(time.Millisecond))
	failures := fmt.Sprintf("errors=%d", res.failed)
	if nc != nil {
		failures = fmt.Sprintf("typed-faults=%d untyped=%d", res.faults, res.failed)
	}
	fmt.Fprintf(out, "ops=%d (%.0f ops/s) sheds(client)=%d sheds(server)=%d dues=%d sdcs=%d %s\n",
		res.ops, float64(res.ops)/res.elapsed.Seconds(), res.sheds, shedTotal, res.dues, res.sdcs, failures)
	fmt.Fprintf(out, "latency: p50=%v p90=%v p99=%v\n",
		res.hist.Quantile(0.50), res.hist.Quantile(0.90), res.hist.Quantile(0.99))
	fmt.Fprintf(out, "storm: peak=%s end=%s tap-events=%d tap-dropped=%d\n",
		maxStorm, endStorm, events.Load(), dropTotal)
	if nc != nil {
		nc.report(out)
	}
	if !o.quiet {
		printHist(out, res.hist)
	}

	var fails []string
	if res.sdcs > 0 {
		fails = append(fails, fmt.Sprintf("%d silent corruptions", res.sdcs))
	}
	if res.failed > 0 {
		what := "failed operations"
		if nc != nil {
			what = "untyped errors escaped the client"
		}
		fails = append(fails, fmt.Sprintf("%d %s (first: %v)", res.failed, what, res.firstErr))
	}
	if dropTotal > 0 {
		fails = append(fails, fmt.Sprintf("%d dropped tap events", dropTotal))
	}
	if nc != nil {
		fails = append(fails, nc.gates(res.ops)...)
	}
	if o.p99gate > 0 {
		if p99 := res.hist.Quantile(0.99); p99 > o.p99gate {
			fails = append(fails, fmt.Sprintf("p99 %v exceeds gate %v", p99, o.p99gate))
		}
	}
	if o.requireshed && shedTotal == 0 {
		fails = append(fails, "no requests shed (admission control never engaged)")
	}
	if o.requirestorm {
		if maxStorm == "normal" {
			fails = append(fails, "storm ladder never escalated")
		}
		if endStorm != "normal" {
			fails = append(fails, fmt.Sprintf("storm ladder stuck at %s after %v settle", endStorm, o.settle))
		}
		if events.Load() == 0 {
			fails = append(fails, "no RAS events delivered on the tap")
		}
	}
	if o.tracegate {
		rec, err := reqtrace.FetchRecord(flightrec)
		if err != nil {
			return fmt.Errorf("flightrec scrape: %w", err)
		}
		mergeRec(rec)
		rec.Traces = rec.Traces[:0]
		for _, tj := range recMerged {
			rec.Traces = append(rec.Traces, tj)
		}
		gateFails, deep := traceGateFails(rec)
		fmt.Fprintf(out, "flightrec: traces=%d (merged over run, %d past ECC-1) begun=%d published=%d dropped=%d\n",
			len(rec.Traces), deep, rec.Begun, rec.Published, rec.Dropped)
		fails = append(fails, gateFails...)
	}
	if len(fails) > 0 {
		return fmt.Errorf("%s gates failed: %s", label, strings.Join(fails, "; "))
	}
	fmt.Fprintf(out, "%s: PASS\n", label)
	return nil
}

// runFleet runs the striped shadow-verifying workers against cl until
// stop is set. Goroutine g owns lines {l : l mod G == g} of the first
// o.lines lines — disjoint stripes, so shadow state needs no
// cross-goroutine synchronization and a batch sync never races a
// sibling's writes. With resilient (the -netchaos data plane) a typed
// error is the expected end of a faulted operation; otherwise any
// error other than a shed or a per-item DUE is a failure. Either way
// the worker carries on and the run reports the first failure.
func runFleet(ctx context.Context, o options, cl *client.Client, stop *atomic.Bool, resilient bool) *fleetResult {
	start := time.Now()
	var wg sync.WaitGroup
	var ops, sheds, dues, sdcs, faults, failed atomic.Int64
	var firstErr atomic.Pointer[error]
	hists := make([]telemetry.LocalHistogram, o.goroutines)
	master := rng.New(o.seed)
	for g := 0; g < o.goroutines; g++ {
		src := master.Split()
		wg.Add(1)
		go func(g int, src *rng.Source) {
			defer wg.Done()
			h := &hists[g]
			shadow := make(map[uint64]uint32) // line -> version (0 = unknown)
			mine := make([]uint64, 0, o.lines/o.goroutines+1)
			for l := uint64(g); l < uint64(o.lines); l += uint64(o.goroutines) {
				mine = append(mine, l)
			}
			if len(mine) == 0 {
				return
			}
			n := uint64(len(mine))
			buf := make([]byte, 64)
			expect := make([]byte, 64)
			single := make([]uint64, 1)
			batchAddrs := make([]uint64, 0, o.batch)
			batchVers := make([]uint32, 0, o.batch)
			batchData := make([]byte, 0, o.batch*64)
			verify := func(line uint64, got []byte) {
				if v := shadow[line]; v != 0 { // 0: never written by us, or reset after a DUE
					fillLine(expect, line*64, uint64(v))
					if !bytes.Equal(got, expect) {
						sdcs.Add(1)
					}
				}
			}
			// itemDUE accounts a per-item failure the server reported:
			// the line's content is unknown until the next confirmed
			// write.
			itemDUE := func(line uint64) {
				dues.Add(1)
				delete(shadow, line)
			}
			// fail accounts an operation that returned no verdict.
			// written holds the addresses a write touched: its outcome
			// is unknown — under retries an earlier attempt can commit
			// and lose its response — so their shadows are dropped. A
			// plain-mode shed never executed and keeps them.
			fail := func(err error, written []uint64) {
				ra, shed := client.IsShed(err)
				if resilient || !shed {
					for _, a := range written {
						delete(shadow, a/64)
					}
				}
				switch {
				case shed:
					sheds.Add(1)
					// Honor the server's hint, but never sleep the run
					// away.
					time.Sleep(min(ra, 200*time.Millisecond))
				case resilient && client.Typed(err):
					faults.Add(1)
					var bo *client.BreakerOpenError
					if errors.As(err, &bo) {
						// The breaker is doing its job; stop hammering
						// it and let the cooldown elapse.
						time.Sleep(20 * time.Millisecond)
					}
				default:
					failed.Add(1)
					firstErr.CompareAndSwap(nil, &err)
				}
			}
			for !stop.Load() {
				line := mine[src.Uint64n(n)]
				isBatch := src.Float64() < o.batchfrac
				isRead := src.Float64() < o.readfrac
				opStart := time.Now()
				var err error
				var written []uint64
				switch {
				case isBatch:
					// A contiguous run of this goroutine's stripe.
					batchAddrs = batchAddrs[:0]
					base := src.Uint64n(n)
					for k := uint64(0); k < uint64(o.batch); k++ {
						batchAddrs = append(batchAddrs, mine[(base+k)%n]*64)
					}
					var ie *client.ItemError
					if isRead {
						var data []byte
						data, err = cl.ReadBatch(ctx, o.tenant, batchAddrs)
						if err == nil || errors.As(err, &ie) {
							for k, a := range batchAddrs {
								if ie != nil && ie.Errs[k] != "" {
									itemDUE(a / 64)
								} else {
									verify(a/64, data[k*64:(k+1)*64])
								}
							}
							err = nil
						}
						break
					}
					// Versions are fixed before the sync, so a stripe
					// shorter than the batch writes one consistent
					// version to a line it names twice.
					batchVers, batchData = batchVers[:0], batchData[:0]
					for _, a := range batchAddrs {
						v := shadow[a/64] + 1
						fillLine(buf, a, uint64(v))
						batchVers = append(batchVers, v)
						batchData = append(batchData, buf...)
					}
					err = cl.WriteBatch(ctx, o.tenant, batchAddrs, batchData)
					// Commit shadow versions only once the server
					// confirms.
					if err == nil || errors.As(err, &ie) {
						for k, a := range batchAddrs {
							if ie != nil && ie.Errs[k] != "" {
								itemDUE(a / 64)
							} else {
								shadow[a/64] = batchVers[k]
							}
						}
						err = nil
					}
					written = batchAddrs
				case isRead:
					var data []byte
					if data, err = cl.Read(ctx, o.tenant, line*64); err == nil {
						verify(line, data)
					}
				default:
					v := shadow[line] + 1
					fillLine(buf, line*64, uint64(v))
					if err = cl.Write(ctx, o.tenant, line*64, buf); err == nil {
						shadow[line] = v
					}
					single[0] = line * 64
					written = single
				}
				if isItemError(err) { // a single-line DUE
					itemDUE(line)
					err = nil
				}
				h.ObserveNs(time.Since(opStart).Nanoseconds())
				if err != nil {
					fail(err, written)
					continue
				}
				ops.Add(1)
			}
		}(g, src)
	}
	wg.Wait()
	res := &fleetResult{
		ops: ops.Load(), sheds: sheds.Load(), dues: dues.Load(), sdcs: sdcs.Load(),
		faults: faults.Load(), failed: failed.Load(), elapsed: time.Since(start),
	}
	if ep := firstErr.Load(); ep != nil {
		res.firstErr = *ep
	}
	for i := range hists {
		res.hist.Add(hists[i].Snapshot())
	}
	return res
}

// every runs fn each period on its own goroutine until ctx ends.
func every(ctx context.Context, wg *sync.WaitGroup, period time.Duration, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

func isItemError(err error) bool {
	var ie *client.ItemError
	return errors.As(err, &ie)
}

// traceGateFails applies the -tracegate checks to a flight-recorder
// snapshot: the server must have begun traces under the swarm, the
// record must pass reqtrace's structural check (non-empty, counters
// consistent, trace ids valid, every trace timestamp-monotone with
// repair rungs in ladder order), and at least one trace must have
// walked past ECC-1 — the depth the fault storm is supposed to produce.
func traceGateFails(rec *reqtrace.FlightRecord) (fails []string, deep int) {
	if rec.Begun == 0 {
		fails = append(fails, "no traces begun server-side (wire trace context lost)")
	}
	if err := rec.Check(); err != nil {
		fails = append(fails, "flight recorder: "+err.Error())
	}
	for _, tj := range rec.Traces {
		if tj.Deep() {
			deep++
		}
	}
	if deep == 0 {
		fails = append(fails, fmt.Sprintf("no trace went past ECC-1 (%d recorded)", len(rec.Traces)))
	}
	return fails, deep
}

// scrapeServerMetrics pulls the daemon's exposition and folds the
// sudoku_server_shed_total and sudoku_server_tap_dropped_total series
// across tenants and reasons.
func scrapeServerMetrics(url string) (shed, dropped int64, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	series, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	for key, v := range series {
		switch {
		case strings.HasPrefix(key, "sudoku_server_shed_total"):
			shed += int64(v)
		case strings.HasPrefix(key, "sudoku_server_tap_dropped_total"):
			dropped += int64(v)
		}
	}
	return shed, dropped, nil
}

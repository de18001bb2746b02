package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"sudoku"
	"sudoku/client"
	"sudoku/internal/server"
	"sudoku/internal/server/tenant"
	"sudoku/internal/server/wire"
)

const frameType = "application/x-sudoku-frame"

// wireReplay replays worker 0's ops through each wire-side layer in
// turn. Each step times every call of its layer, one op at a time.
type wireReplay struct {
	w     *worker
	ops   []op
	tn    string
	batch int
	m     layerMetrics
	l     *ledger
	rep   *replica
	// rsh shadows the replica's copy of worker 0's domain; reqs and
	// frames are the ops as wire requests, with the data of plan p.
	rsh    *shadow
	p      plan
	reqs   []wire.Request
	frames [][]byte
	// Per-op µs of each layer, indexed like ops.
	wc, ws, handler, engine, stubClient, roundTrip, client []float64
}

// traceWireLayers replays worker 0's stream through the wire codec, the
// server handler in memory over a replica of the daemon's engine, that
// engine directly, the client and a bare h2c round trip against a stub
// peer process, and finally the client against the daemon itself (the
// traced end-to-end op), then reconciles them into the ledger.
func traceWireLayers(t *target, w *worker, ops []op, m layerMetrics) (ledger, error) {
	var l ledger
	if err := kernels(m); err != nil {
		return l, err
	}
	r := &wireReplay{w: w, ops: ops, tn: t.spec.tenants[0], batch: t.spec.batch, m: m, l: &l}
	steps := []func() error{r.startReplica, r.codec, r.serveHTTP, r.engineCalls, r.stubCalls, r.daemonCalls}
	for _, step := range steps {
		if err := step(); err != nil {
			if r.rep != nil {
				r.rep.close()
			}
			return l, err
		}
	}
	rd := func(xs []float64) float64 { return readMedian(ops, xs) }
	wcR, wsR, hR, eR := rd(r.wc), rd(r.ws), rd(r.handler), rd(r.engine)
	rtt := rd(r.roundTrip)
	handlerSelf := hR - wsR - eR
	clientSelf := rd(r.stubClient) - rtt - wcR
	m.set("handler.self_ns", handlerSelf*1e3)
	m.set("client.self_us", clientSelf)
	m.set("transport.rtt_us", rtt)
	l.add("client (self)", clientSelf)
	l.add("wire, client side (encode req, decode resp)", wcR)
	l.add("transport (h2c loopback round trip)", rtt)
	l.add("wire, server side (decode req, encode resp)", wsR)
	l.add("handler (self)", handlerSelf)
	l.add("engine", eR)
	l.traced = rd(r.client)
	l.note = "client and transport are timed against a stub peer process that answers every frame with a canned success"
	return l, nil
}

// startReplica builds the in-process copy of the daemon's serving stack
// and prefills worker 0's domain on it, as set-up did on the daemon.
func (r *wireReplay) startReplica() error {
	rep, err := startReplica(r.tn)
	if err != nil {
		return err
	}
	r.rep = rep
	r.rsh = newShadow(r.w.id, r.w.base, uint64(len(r.w.sh.ver)))
	all := make([]uint64, len(r.rsh.ver))
	for i := range all {
		all[i] = uint64(i)
	}
	pre := makePlan([]op{{write: true, lines: all}}, r.rsh)
	for j, ln := range all {
		a, err := rep.tn.MapAddr((r.w.base + ln) * lineBytes)
		if err == nil {
			err = rep.eng.Write(a, pre.data[0][j*lineBytes:(j+1)*lineBytes])
		}
		if err != nil {
			return fmt.Errorf("replica prefill: %w", err)
		}
	}
	rep.probe.reset()
	rep.storm.take()
	rep.stats0 = rep.eng.Stats()

	r.p = makePlan(r.ops, r.rsh)
	r.reqs = make([]wire.Request, len(r.ops))
	r.frames = make([][]byte, len(r.ops))
	for i, o := range r.ops {
		addrs := make([]uint64, len(o.lines))
		for j, ln := range o.lines {
			addrs[j] = (r.w.base + ln) * lineBytes
		}
		r.reqs[i] = wire.Request{Tenant: r.tn, Addrs: addrs, Data: r.p.data[i]}
		payload, err := wire.EncodeRequest(wire.CodecBinary, &r.reqs[i])
		if err != nil {
			return err
		}
		var b bytes.Buffer
		if err := wire.WriteFrame(&b, r.header(i), payload); err != nil {
			return err
		}
		r.frames[i] = b.Bytes()
	}
	return nil
}

// header is op i's request frame header: binary codec, trace id i+1.
func (r *wireReplay) header(i int) wire.Header {
	o := r.ops[i]
	op := wire.OpRead
	switch {
	case r.batch == 1 && o.write:
		op = wire.OpWrite
	case r.batch > 1 && o.write:
		op = wire.OpWriteBatch
	case r.batch > 1:
		op = wire.OpReadBatch
	}
	return wire.Header{Version: wire.Version, Codec: wire.CodecBinary, Op: op, Flags: wire.FlagTrace, TraceID: uint64(i + 1)}
}

// codec times the four encode/decode steps of each exchange: client
// encode, server decode, server encode, client decode.
func (r *wireReplay) codec() error {
	n := len(r.ops)
	encNs, decNs := make([]float64, n), make([]float64, n)
	r.wc, r.ws = make([]float64, n), make([]float64, n)
	readResp := &wire.Response{Status: wire.StatusOK, Data: make([]byte, r.batch*lineBytes)}
	okResp := &wire.Response{Status: wire.StatusOK}
	var rd bytes.Reader
	var fb, rb bytes.Buffer
	var wireBytes float64
	m0 := mallocs()
	for i, o := range r.ops {
		h := r.header(i)
		t0 := time.Now()
		payload, err1 := wire.EncodeRequest(wire.CodecBinary, &r.reqs[i])
		fb.Reset()
		if err1 == nil {
			err1 = wire.WriteFrame(&fb, h, payload)
		}
		e1 := usSince(t0)
		t0 = time.Now()
		rd.Reset(fb.Bytes())
		qh, qp, err2 := wire.ReadFrame(&rd)
		if err2 == nil {
			_, err2 = wire.DecodeRequest(qh, qp)
		}
		d1 := usSince(t0)
		resp := okResp
		if !o.write {
			resp = readResp
		}
		t0 = time.Now()
		rp, err3 := wire.EncodeResponse(wire.CodecBinary, resp)
		rb.Reset()
		if err3 == nil {
			err3 = wire.WriteFrame(&rb, h, rp)
		}
		e2 := usSince(t0)
		t0 = time.Now()
		rd.Reset(rb.Bytes())
		sh, sp, err4 := wire.ReadFrame(&rd)
		if err4 == nil {
			_, err4 = wire.DecodeResponse(sh.Codec, sp)
		}
		d2 := usSince(t0)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return fmt.Errorf("wire replay op %d: %w", i, err)
		}
		wireBytes += float64(fb.Len() + rb.Len())
		encNs[i], decNs[i] = (e1+e2)*1e3, (d1+d2)*1e3
		r.wc[i], r.ws[i] = e1+d2, d1+e2
	}
	r.m.set("wire.allocs_per_op", float64(mallocs()-m0)/float64(n))
	r.m.set("wire.bytes_per_op", wireBytes/float64(n))
	r.m.set("wire.encode_ns", median(encNs))
	r.m.set("wire.decode_ns", median(decNs))
	return nil
}

// memWriter is an in-memory http.ResponseWriter reused across calls.
type memWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// serveHTTP times the replica server's Handler().ServeHTTP on
// in-memory requests, then verifies every response.
func (r *wireReplay) serveHTTP() error {
	n := len(r.ops)
	hreqs := make([]*http.Request, n)
	for i := range r.ops {
		req, err := http.NewRequest(http.MethodPost, "/v1/op", bytes.NewReader(r.frames[i]))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", frameType)
		hreqs[i] = req
	}
	handler := r.rep.srv.Handler()
	mw := &memWriter{h: make(http.Header)}
	// Responses are copied into one presized buffer so the loop's
	// allocations are the handler's own.
	store := make([]byte, 0, n*(r.batch*lineBytes+256))
	offs := make([]int, n+1)
	codes := make([]int, n)
	r.handler = make([]float64, n)
	m0 := mallocs()
	for i := range r.ops {
		mw.code = 0
		mw.body.Reset()
		t0 := time.Now()
		handler.ServeHTTP(mw, hreqs[i])
		r.handler[i] = usSince(t0)
		codes[i] = mw.code
		store = append(store, mw.body.Bytes()...)
		offs[i+1] = len(store)
	}
	r.m.set("handler.allocs_per_op", float64(mallocs()-m0)/float64(n))
	var rd bytes.Reader
	for i, o := range r.ops {
		r.l.ops++
		rd.Reset(store[offs[i]:offs[i+1]])
		rh, rp, err := wire.ReadFrame(&rd)
		var resp *wire.Response
		if err == nil {
			resp, err = wire.DecodeResponse(rh.Codec, rp)
		}
		if err != nil || codes[i] != http.StatusOK || resp.Status != wire.StatusOK {
			r.l.failed++
			continue
		}
		if !o.write {
			r.p.check(r.rsh, i, o, resp.Data, &r.l.sdc)
		}
	}
	return nil
}

// engineCalls times the same ops straight into the replica's engine,
// then reads the replica's engine, scrub, storm and session figures and
// shuts it down before the client steps.
func (r *wireReplay) engineCalls() error {
	p := makePlan(r.ops, r.rsh)
	r.engine = make([]float64, len(r.ops))
	dst := make([]byte, r.batch*lineBytes)
	eng := r.rep.eng
	for i, o := range r.ops {
		addrs := make([]uint64, len(o.lines))
		for j, a := range r.reqs[i].Addrs {
			ea, err := r.rep.tn.MapAddr(a)
			if err != nil {
				return err
			}
			addrs[j] = ea
		}
		var err error
		var errs []error
		t0 := time.Now()
		switch {
		case r.batch == 1 && o.write:
			err = eng.Write(addrs[0], p.data[i])
		case r.batch == 1:
			err = eng.ReadInto(addrs[0], dst)
		case o.write:
			errs, err = eng.WriteBatch(addrs, p.data[i])
		default:
			errs, err = eng.ReadBatch(addrs, dst)
		}
		r.engine[i] = usSince(t0)
		r.l.ops++
		if err == nil {
			err = errors.Join(errs...)
		}
		if err != nil {
			r.l.failed++
			continue
		}
		if !o.write {
			p.check(r.rsh, i, o, dst, &r.l.sdc)
		}
	}
	r.m.set("engine.read_ns", readMedian(r.ops, r.engine)*1e3)
	r.m.set("engine.write_ns", writeMedian(r.ops, r.engine)*1e3)
	bns, err := batchProbe(eng, r.w.sh.key, r.rep.tn.BaseLine()+r.w.base, uint64(len(r.w.sh.ver)))
	if err != nil {
		return err
	}
	r.m.set("engine.batch_ns_per_line", bns)
	setEngineCounters(r.m, eng.Stats(), r.rep.stats0)
	passMs, share := r.rep.probe.read()
	r.m.set("scrub.pass_ms", passMs)
	r.m.set("scrub.cpu_share", share)
	r.m.set("storm.elevated_frac", r.rep.storm.take())
	waits := make([]float64, 200)
	for i := range waits {
		t0 := time.Now()
		rel, err := r.rep.tn.AcquireSync(context.Background())
		if err != nil {
			return fmt.Errorf("session acquire: %w", err)
		}
		rel()
		waits[i] = usSince(t0)
	}
	r.m.set("session.wait_us", median(waits))
	r.rep.close()
	r.rep = nil
	return nil
}

// stubCalls times the client, and a bare h2c POST of the same frames,
// against a stub peer process.
func (r *wireReplay) stubCalls() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	stub, err := startServer(self, "stub", "-batch", strconv.Itoa(r.batch))
	if err != nil {
		return err
	}
	defer stub.stop()
	runtime.GC()
	sc := client.New(client.Options{Addr: stub.addr, Codec: wire.CodecBinary, HTTPTimeout: 10 * time.Second})
	defer sc.Close()
	tr := &http.Transport{Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	url := "http://" + stub.addr + "/v1/op"
	ctx := context.Background()
	n := len(r.ops)
	r.stubClient, r.roundTrip = make([]float64, n), make([]float64, n)
	// Each op goes through the client and then as a bare POST, so the
	// two timings, whose difference is the client's own cost, see the
	// same host conditions.
	for i, o := range r.ops {
		q := &r.reqs[i]
		t0 := time.Now()
		switch {
		case r.batch == 1 && o.write:
			err = sc.Write(ctx, r.tn, q.Addrs[0], q.Data)
		case r.batch == 1:
			_, err = sc.Read(ctx, r.tn, q.Addrs[0])
		case o.write:
			err = sc.WriteBatch(ctx, r.tn, q.Addrs, q.Data)
		default:
			_, err = sc.ReadBatch(ctx, r.tn, q.Addrs)
		}
		r.stubClient[i] = usSince(t0)
		if err != nil {
			return fmt.Errorf("client against stub: %w", err)
		}
		t0 = time.Now()
		resp, err := hc.Post(url, frameType, bytes.NewReader(r.frames[i]))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		r.roundTrip[i] = usSince(t0)
		if err != nil {
			return fmt.Errorf("h2c round trip to stub: %w", err)
		}
	}
	return nil
}

// daemonCalls replays the ops through worker 0's own client against the
// daemon: the traced end-to-end op, shadow-verified like the workload.
func (r *wireReplay) daemonCalls() error {
	runtime.GC()
	w := r.w
	w.resetCounts()
	r.client = make([]float64, len(r.ops))
	for i := range r.ops {
		r.client[i] = float64(w.exec(w, &r.ops[i]).Nanoseconds()) / 1e3
	}
	r.l.ops += w.ops
	r.l.failed += w.failed
	r.l.sdc += w.sdc
	return nil
}

// stubHandler answers every frame with a canned success of the right
// shape and the request's trace id echoed: a peer that costs almost
// nothing, so the client and a bare h2c round trip can be timed against
// it. batch is the lines a read returns.
func stubHandler(batch int) (http.Handler, error) {
	readPayload, err := wire.EncodeResponse(wire.CodecBinary, &wire.Response{Status: wire.StatusOK, Data: make([]byte, batch*lineBytes)})
	if err != nil {
		return nil, err
	}
	okPayload, err := wire.EncodeResponse(wire.CodecBinary, &wire.Response{Status: wire.StatusOK})
	if err != nil {
		return nil, err
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _, err := wire.ReadFrame(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		payload := okPayload
		if h.Op == wire.OpRead || h.Op == wire.OpReadBatch {
			payload = readPayload
		}
		w.Header().Set("Content-Type", frameType)
		w.WriteHeader(http.StatusOK)
		_ = wire.WriteFrame(w, wire.Header{
			Version: wire.Version, Codec: h.Codec, Op: h.Op,
			Flags: h.Flags & wire.FlagTrace, TraceID: h.TraceID,
		}, payload)
	}), nil
}

// stubMain serves the stub peer over h2c on an ephemeral loopback port
// until the process is killed. It runs as its own process, like the
// daemon, so the round trip timed against it crosses the same process
// boundary.
func stubMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench stub", flag.ContinueOnError)
	batch := fs.Int("batch", 1, "lines per read response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := stubHandler(*batch)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	fmt.Fprintf(out, "serving on %s\n", ln.Addr())
	return (&http.Server{Handler: h, Protocols: &protos}).Serve(ln)
}

// replica is an in-process copy of the daemon's serving stack:
// sudoku-cached's default engine (4 MB, seed 1, storm control, 20 ms
// scrub), its default tenants, and the server built on them.
type replica struct {
	eng    *sudoku.Concurrent
	srv    *server.Server
	tn     *tenant.Tenant
	probe  *scrubProbe
	storm  *stormSampler
	stats0 sudoku.Stats
}

func startReplica(tenantName string) (*replica, error) {
	eng, err := sudoku.NewConcurrent(engineConfig(4, 1))
	if err != nil {
		return nil, err
	}
	r := &replica{eng: eng, probe: newScrubProbe()}
	if err := startDaemons(eng, 0, r.probe); err != nil {
		return nil, err
	}
	r.storm = startStormSampler(eng)
	reg, err := tenant.NewRegistry(uint64(eng.Geometry().Lines), []tenant.Config{
		{Name: "alpha", Lines: tenantLines},
		{Name: "beta", Lines: tenantLines, Priority: tenant.High},
	})
	if err == nil {
		r.srv, err = server.New(server.Options{Engine: eng, Tenants: reg})
	}
	if err == nil {
		r.tn, err = reg.Lookup(tenantName)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replica) close() {
	r.storm.close()
	stopDaemons(r.eng)
}

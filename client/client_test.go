package client

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sudoku"
	"sudoku/internal/server"
	"sudoku/internal/server/tenant"
	"sudoku/internal/server/wire"
	"sudoku/internal/telemetry"
)

// startFrameServer boots a raw h2c handler on an ephemeral port —
// the client-side mirror of the server package's test helper, for
// tests that need to script the server's exact bytes.
func startFrameServer(t *testing.T, handler http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: handler, Protocols: &protos}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { _ = hs.Close() })
	return ln.Addr().String()
}

// echoHandler answers every /v1/op frame with a 64-byte OK response
// echoing the trace id, and records the request headers it saw.
func echoHandler(headers chan<- wire.Header) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _, err := wire.ReadFrame(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case headers <- h:
		default:
		}
		payload, _ := wire.EncodeResponse(h.Codec, &wire.Response{
			Status: wire.StatusOK, Data: make([]byte, LineBytes),
		})
		_ = wire.WriteFrame(w, wire.Header{
			Version: wire.Version, Codec: h.Codec, Op: h.Op,
			Flags: wire.FlagTrace, TraceID: h.TraceID,
		}, payload)
	})
}

// TestDeadlineStamping: a context deadline rides the frame as a
// relative budget; an unbounded context leaves the extension off.
func TestDeadlineStamping(t *testing.T) {
	headers := make(chan wire.Header, 2)
	addr := startFrameServer(t, echoHandler(headers))
	c := New(Options{Addr: addr})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Read(ctx, "t", 0); err != nil {
		t.Fatal(err)
	}
	h := <-headers
	if h.Flags&wire.FlagDeadline == 0 {
		t.Fatal("deadline context did not stamp FlagDeadline")
	}
	if h.DeadlineMillis == 0 || h.DeadlineMillis > 5000 {
		t.Fatalf("DeadlineMillis = %d, want (0, 5000]", h.DeadlineMillis)
	}

	if _, err := c.Read(context.Background(), "t", 0); err != nil {
		t.Fatal(err)
	}
	h = <-headers
	if h.Flags&wire.FlagDeadline != 0 {
		t.Fatal("unbounded context stamped FlagDeadline")
	}
}

// TestTypedErrors: transport failures surface as typed errors on both
// the single-shot and resilient paths — no raw net errors escape.
func TestTypedErrors(t *testing.T) {
	// A listener that is immediately closed: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := New(Options{Addr: addr})
	_, err = c.Read(context.Background(), "t", 0)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("single-shot dial failure not a TransportError: %v", err)
	}
	if !Typed(err) {
		t.Fatalf("not typed: %v", err)
	}

	rc := New(Options{Addr: addr, Resilience: &ResilienceOptions{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Seed: 1,
	}})
	_, err = rc.Read(context.Background(), "t", 0)
	var oe *OpError
	if !errors.As(err, &oe) || oe.Attempts != 2 {
		t.Fatalf("resilient dial failure not a 2-attempt OpError: %v", err)
	}
	if !errors.As(err, &te) || !Typed(err) {
		t.Fatalf("OpError does not wrap a typed transport cause: %v", err)
	}
}

// partialHandler answers every /v1/op frame with a StatusPartial
// response carrying errs and n lines of data.
func partialHandler(errs []string, n int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _, err := wire.ReadFrame(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		payload, _ := wire.EncodeResponse(h.Codec, &wire.Response{
			Status: wire.StatusPartial, Errs: errs, Data: make([]byte, n*LineBytes),
		})
		_ = wire.WriteFrame(w, wire.Header{
			Version: wire.Version, Codec: h.Codec, Op: h.Op,
			Flags: wire.FlagTrace, TraceID: h.TraceID,
		}, payload)
	})
}

// TestPartialErrsValidated: a partial response whose per-item verdicts
// do not match the request's item count is a *ProtocolError, never an
// *ItemError a caller would index out of range; a matching one is an
// *ItemError.
func TestPartialErrsValidated(t *testing.T) {
	ctx := context.Background()
	addrs := []uint64{0, 64, 128, 192}
	short := New(Options{Addr: startFrameServer(t, partialHandler([]string{"due"}, 4))})
	defer short.Close()
	var pe *ProtocolError
	if _, err := short.ReadBatch(ctx, "a", addrs); !errors.As(err, &pe) {
		t.Fatalf("ReadBatch with 1 verdict for 4 items: %v, want *ProtocolError", err)
	}
	if err := short.WriteBatch(ctx, "a", addrs, make([]byte, 4*LineBytes)); !errors.As(err, &pe) {
		t.Fatalf("WriteBatch with 1 verdict for 4 items: %v, want *ProtocolError", err)
	}

	none := New(Options{Addr: startFrameServer(t, partialHandler(nil, 1))})
	defer none.Close()
	if _, err := none.Read(ctx, "a", 0); !errors.As(err, &pe) {
		t.Fatalf("Read with 0 verdicts: %v, want *ProtocolError", err)
	}
	if err := none.Write(ctx, "a", 0, make([]byte, LineBytes)); !errors.As(err, &pe) {
		t.Fatalf("Write with 0 verdicts: %v, want *ProtocolError", err)
	}

	full := New(Options{Addr: startFrameServer(t, partialHandler([]string{"", "due", "", ""}, 4))})
	defer full.Close()
	var ie *ItemError
	if _, err := full.ReadBatch(ctx, "a", addrs); !errors.As(err, &ie) || ie.Errs[1] != "due" {
		t.Fatalf("ReadBatch with 4 verdicts: %v, want *ItemError", err)
	}
}

// TestBlackholedConnRetired: with an attempt timeout armed, a
// connection that never answers — here the first one dialed, which a
// proxy in front of a healthy server swallows — is retired by the
// HTTP/2 PING health check, so later requests reach the server on a
// fresh connection instead of timing out on the dead one.
func TestBlackholedConnRetired(t *testing.T) {
	upstream := startFrameServer(t, echoHandler(nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for first := true; ; first = false {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { down.Close() })
			if first {
				continue // blackhole: hold it open, never forward a byte
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				return
			}
			t.Cleanup(func() { up.Close() })
			go func() { _, _ = io.Copy(up, down) }()
			go func() { _, _ = io.Copy(down, up) }()
		}
	}()
	cl := New(Options{Addr: ln.Addr().String(), Resilience: &ResilienceOptions{
		MaxAttempts:    1,
		AttemptTimeout: 100 * time.Millisecond,
		Breaker:        BreakerOptions{Disabled: true},
	}})
	defer cl.Close()
	// Overlapping reads keep a stream in flight for the whole run, so
	// the dead connection is never idle and eviction cannot close it.
	const reads = 80
	var late atomic.Int32 // successes in the second half
	done := make(chan struct{}, reads)
	for i := 0; i < reads; i++ {
		go func(i int) {
			if _, err := cl.Read(context.Background(), "a", 0); err == nil && i >= reads/2 {
				late.Add(1)
			}
			done <- struct{}{}
		}(i)
		time.Sleep(25 * time.Millisecond)
	}
	for i := 0; i < reads; i++ {
		<-done
	}
	if n := late.Load(); n < reads/4 {
		t.Fatalf("%d of the last %d reads succeeded: requests stayed on the blackholed connection", n, reads/2)
	}
}

// TestClientClose: Close is idempotent, fails later ops with
// ErrClosed, and cancels open event streams without leaking their
// reader goroutines.
func TestClientClose(t *testing.T) {
	events := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done() // hold the stream open until severed
	})
	addr := startFrameServer(t, events)

	before := runtime.NumGoroutine()
	c := New(Options{Addr: addr})
	var readers atomic.Int32
	var streams []*EventStream
	for i := 0; i < 4; i++ {
		s, err := c.Events(context.Background(), "t")
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
		readers.Add(1)
		go func() {
			defer readers.Add(-1)
			for {
				if _, err := s.Next(); err != nil {
					return
				}
			}
		}()
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for readers.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := readers.Load(); n != 0 {
		t.Fatalf("%d stream readers still blocked after Close", n)
	}
	// Stream Close after Client Close is a safe no-op, twice.
	for _, s := range streams {
		_ = s.Close()
		_ = s.Close()
	}

	if _, err := c.Read(context.Background(), "t", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("op after Close: %v, want ErrClosed", err)
	}
	if _, err := c.Events(context.Background(), "t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Events after Close: %v, want ErrClosed", err)
	}

	// The transport goroutines (h2 readers, stream handlers) must
	// drain back to roughly the baseline: no leak per stream.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
}

// TestShedReason parses the server's "shed: <reason>" detail form.
func TestShedReason(t *testing.T) {
	for detail, want := range map[string]string{
		"shed: storm":               "storm",
		"shed: degraded: writes":    "degraded",
		"shed: deadline budget 1ms": "deadline",
		"shed: inflight":            "inflight",
		"storm":                     "",
		"":                          "",
	} {
		se := &ShedError{Detail: detail}
		if got := se.Reason(); got != want {
			t.Errorf("Reason(%q) = %q, want %q", detail, got, want)
		}
	}
}

// startRealServer boots the actual server stack (engine, tenants,
// admission) for end-to-end client tests.
func startRealServer(t *testing.T, storm *atomic.Int32) string {
	t.Helper()
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = 1
	cfg.Shards = 4
	cfg.Seed = 42
	lines := cfg.CacheMB << 20 / 64
	for lines < cfg.GroupSize*cfg.GroupSize {
		cfg.GroupSize /= 2
	}
	eng, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(uint64(eng.Geometry().Lines), []tenant.Config{
		{Name: "t0", Lines: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{
		Engine: eng, Tenants: reg, MaxInflight: 64,
		StormFn: func() sudoku.StormState { return sudoku.StormState(storm.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return startFrameServer(t, srv.Handler())
}

// TestRetryAfterEndToEnd: a real server in Critical storm sheds a
// low-priority read with its Retry-After; the resilient client's
// backoff honors the hint on every retry and the exhausted-budget
// error still wraps the server's ShedError.
func TestRetryAfterEndToEnd(t *testing.T) {
	storm := new(atomic.Int32)
	storm.Store(int32(sudoku.StormCritical))
	addr := startRealServer(t, storm)

	c := New(Options{Addr: addr, Resilience: &ResilienceOptions{
		MaxAttempts: 3, Seed: 1,
	}})
	defer c.Close()
	// Fake the clock so three 2s Retry-After sleeps don't slow the
	// suite; the schedule is still asserted for real.
	clk := new(fakeClock)
	clk.install(c.policy)

	_, err := c.Read(context.Background(), "t0", 0)
	if err == nil {
		t.Fatal("critical storm did not shed")
	}
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("final error does not wrap the server's ShedError: %v", err)
	}
	if se.Reason() != "storm" {
		t.Fatalf("shed reason = %q (%q), want storm", se.Reason(), se.Detail)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("server Retry-After lost: %+v", se)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Attempts != 3 {
		t.Fatalf("want 3-attempt OpError, got %v", err)
	}
	if len(clk.sleeps) != 2 {
		t.Fatalf("sleeps = %v, want 2", clk.sleeps)
	}
	for i, d := range clk.sleeps {
		if d < se.RetryAfter {
			t.Errorf("sleep %d = %v, below the server hint %v", i, d, se.RetryAfter)
		}
	}
	st := c.ResilienceStats()
	if st.RetriesShed != 2 {
		t.Fatalf("RetriesShed = %d, want 2", st.RetriesShed)
	}

	// Storm clears: the same client succeeds (breaker untouched by
	// sheds) and metrics render.
	storm.Store(int32(sudoku.StormNormal))
	if err := c.Write(context.Background(), "t0", 0, make([]byte, LineBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(context.Background(), "t0", 0); err != nil {
		t.Fatal(err)
	}
	treg := telemetry.NewRegistry()
	c.RegisterMetrics(treg)
	var sb []byte
	sb = treg.AppendPrometheus(sb)
	for _, want := range []string{
		"sudoku_client_attempts_total",
		`sudoku_client_retries_total{cause="shed"} 2`,
		`sudoku_client_breaker_state{op="read"} 0`,
	} {
		if !strings.Contains(string(sb), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb)
		}
	}
}

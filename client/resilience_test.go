package client

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sudoku/internal/server/wire"
)

// fakeClock drives a policy without real time: now is an atomic
// nanosecond cursor, sleep advances it and records every requested
// duration.
type fakeClock struct {
	ns     atomic.Int64
	sleeps []time.Duration
}

func (f *fakeClock) install(p *policy) {
	p.now = func() time.Time { return time.Unix(0, f.ns.Load()) }
	p.sleep = func(ctx context.Context, d time.Duration) error {
		f.sleeps = append(f.sleeps, d)
		f.ns.Add(int64(d))
		return ctx.Err()
	}
}

func okResponse() *wire.Response {
	return &wire.Response{Status: wire.StatusOK, Data: make([]byte, LineBytes)}
}

// TestRetryAfterSchedule: the server's Retry-After hint must floor
// every backoff sleep, survive all retries, and remain reachable via
// errors.As once the attempt budget is spent.
func TestRetryAfterSchedule(t *testing.T) {
	const hint = 700 * time.Millisecond
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 3, Seed: 1,
		BaseBackoff: 25 * time.Millisecond, MaxBackoff: 2 * time.Second,
		Breaker: BreakerOptions{Disabled: true},
	})
	clk := new(fakeClock)
	clk.install(p)
	attempts := 0
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		attempts++
		return nil, &ShedError{Detail: "shed: storm", RetryAfter: hint, TraceID: uint64(attempts)}
	}
	_, err := p.run(context.Background(), wire.OpWrite, &wire.Request{})
	if err == nil {
		t.Fatal("expected failure after budget exhaustion")
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if len(clk.sleeps) != 2 {
		t.Fatalf("sleeps = %v, want 2 entries", clk.sleeps)
	}
	for i, d := range clk.sleeps {
		if d < hint {
			t.Errorf("sleep %d = %v, below the server's Retry-After %v", i, d, hint)
		}
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Attempts != 3 {
		t.Fatalf("final error is not a 3-attempt OpError: %v", err)
	}
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("final error does not wrap the ShedError: %v", err)
	}
	if se.RetryAfter != hint || se.TraceID != 3 {
		t.Fatalf("wrapped shed is not the last one: %+v", se)
	}
	if !Typed(err) {
		t.Fatalf("final error not typed: %v", err)
	}
	if got := p.retriesShed.Value(); got != 2 {
		t.Fatalf("retriesShed = %d, want 2", got)
	}
}

// TestRetrySucceedsAfterTransportFaults: transient transport failures
// are retried on jittered backoff and the operation still succeeds.
func TestRetrySucceedsAfterTransportFaults(t *testing.T) {
	p := newPolicy(ResilienceOptions{MaxAttempts: 4, Seed: 7})
	clk := new(fakeClock)
	clk.install(p)
	attempts := 0
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		attempts++
		if attempts < 3 {
			return nil, &TransportError{Detail: "reset"}
		}
		return okResponse(), nil
	}
	resp, err := p.run(context.Background(), wire.OpRead, &wire.Request{})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("run: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if got := p.retriesTransport.Value(); got != 2 {
		t.Fatalf("retriesTransport = %d, want 2", got)
	}
	// Backoff must grow its ceiling: every draw stays under
	// min(Base<<n, Max), and the draws are deterministic for a fixed
	// seed (replayability is what lets the netchaos gate pin timings).
	p2 := newPolicy(ResilienceOptions{MaxAttempts: 4, Seed: 7})
	clk2 := new(fakeClock)
	clk2.install(p2)
	a2 := 0
	p2.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		a2++
		if a2 < 3 {
			return nil, &TransportError{Detail: "reset"}
		}
		return okResponse(), nil
	}
	if _, err := p2.run(context.Background(), wire.OpRead, &wire.Request{}); err != nil {
		t.Fatal(err)
	}
	for i := range clk.sleeps {
		if clk.sleeps[i] != clk2.sleeps[i] {
			t.Fatalf("jitter not deterministic for fixed seed: %v vs %v", clk.sleeps, clk2.sleeps)
		}
	}
}

// TestTerminalErrorsDontRetry: structural rejections and per-item
// failures must not burn attempts.
func TestTerminalErrorsDontRetry(t *testing.T) {
	for _, terminal := range []error{
		&ProtocolError{Detail: "bad tenant"},
		&ItemError{Errs: []string{"boom"}},
	} {
		p := newPolicy(ResilienceOptions{MaxAttempts: 5, Seed: 1})
		clk := new(fakeClock)
		clk.install(p)
		attempts := 0
		p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
			attempts++
			return nil, terminal
		}
		_, err := p.run(context.Background(), wire.OpRead, &wire.Request{})
		if attempts != 1 {
			t.Fatalf("%T: attempts = %d, want 1", terminal, attempts)
		}
		if !errors.Is(err, terminal) {
			t.Fatalf("%T: final error lost the cause: %v", terminal, err)
		}
		if !Typed(err) {
			t.Fatalf("%T: not typed: %v", terminal, err)
		}
	}
}

// TestBreakerCycle drives the full state machine: consecutive
// transport failures open the breaker, the open breaker rejects
// locally, the cooldown admits a half-open probe, and probe successes
// close it again.
func TestBreakerCycle(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 1, Seed: 1,
		Breaker: BreakerOptions{FailureThreshold: 3, Cooldown: time.Second, HalfOpenProbes: 1},
	})
	clk := new(fakeClock)
	clk.install(p)
	failing := true
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		if failing {
			return nil, &TransportError{Detail: "reset"}
		}
		return okResponse(), nil
	}
	ctx := context.Background()
	req := &wire.Request{}

	for i := 0; i < 3; i++ {
		if _, err := p.run(ctx, wire.OpRead, req); err == nil {
			t.Fatal("expected failure")
		}
	}
	if got := p.breakers[0].state.Load(); got != BreakerOpen {
		t.Fatalf("state after threshold = %d, want open", got)
	}

	// While open and inside the cooldown: local reject, no attempt.
	before := p.attempts.Value()
	_, err := p.run(ctx, wire.OpRead, req)
	var boe *BreakerOpenError
	if !errors.As(err, &boe) {
		t.Fatalf("expected BreakerOpenError, got %v", err)
	}
	if boe.RetryAfter <= 0 || boe.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want within cooldown", boe.RetryAfter)
	}
	if p.attempts.Value() != before {
		t.Fatal("open breaker still issued a network attempt")
	}
	if !Typed(err) {
		t.Fatalf("breaker rejection not typed: %v", err)
	}

	// Past the cooldown the next attempt is a half-open probe; its
	// success closes the breaker.
	clk.ns.Add(int64(time.Second + time.Millisecond))
	failing = false
	if _, err := p.run(ctx, wire.OpRead, req); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := p.breakers[0].state.Load(); got != BreakerClosed {
		t.Fatalf("state after probe = %d, want closed", got)
	}
	st := statsOf(p)
	if st.BreakerOpens != 1 || st.BreakerHalfOpens != 1 || st.BreakerCloses != 1 {
		t.Fatalf("transition counts: %+v", st)
	}
	if st.BreakerRejects == 0 {
		t.Fatalf("no local rejects counted: %+v", st)
	}

	// A probe failure reopens.
	failing = true
	for i := 0; i < 3; i++ {
		_, _ = p.run(ctx, wire.OpRead, req)
	}
	clk.ns.Add(int64(time.Second + time.Millisecond))
	_, _ = p.run(ctx, wire.OpRead, req) // failing probe
	if got := p.breakers[0].state.Load(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %d, want open", got)
	}
}

func statsOf(p *policy) ResilienceStats {
	c := &Client{policy: p}
	return c.ResilienceStats()
}

// TestBreakerPerEndpoint: batch failures must not open the single-read
// breaker.
func TestBreakerPerEndpoint(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 1, Seed: 1,
		Breaker: BreakerOptions{FailureThreshold: 2, Cooldown: time.Hour, HalfOpenProbes: 1},
	})
	clk := new(fakeClock)
	clk.install(p)
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		if op == wire.OpReadBatch {
			return nil, &TransportError{Detail: "reset"}
		}
		return okResponse(), nil
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		_, _ = p.run(ctx, wire.OpReadBatch, &wire.Request{})
	}
	if got := p.breakers[opIdx(wire.OpReadBatch)].state.Load(); got != BreakerOpen {
		t.Fatalf("batch breaker state = %d, want open", got)
	}
	if _, err := p.run(ctx, wire.OpRead, &wire.Request{}); err != nil {
		t.Fatalf("read blinded by batch breaker: %v", err)
	}
}

// TestShedsDontOpenBreaker: a shedding server is an answering server.
func TestShedsDontOpenBreaker(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 1, Seed: 1,
		Breaker: BreakerOptions{FailureThreshold: 2, Cooldown: time.Hour, HalfOpenProbes: 1},
	})
	clk := new(fakeClock)
	clk.install(p)
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		return nil, &ShedError{Detail: "shed: storm", RetryAfter: time.Second}
	}
	for i := 0; i < 10; i++ {
		_, _ = p.run(context.Background(), wire.OpRead, &wire.Request{})
	}
	if got := p.breakers[0].state.Load(); got != BreakerClosed {
		t.Fatalf("sheds opened the breaker (state %d)", got)
	}
}

// TestHedgeWins: a slow primary is overtaken by the hedge lane, the
// win is counted, and the op returns the hedge's answer.
func TestHedgeWins(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 1, Seed: 1,
		Hedge: HedgeOptions{
			Enabled: true, MinSamples: 1, Quantile: 0.5,
			MinDelay: time.Millisecond, MaxDelay: time.Millisecond,
			BudgetFraction: 0.9,
		},
	})
	p.lat.ObserveNs(int64(time.Millisecond)) // warm past MinSamples
	var calls atomic.Int32
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // primary hangs until first-wins cancellation
			return nil, ctx.Err()
		}
		return okResponse(), nil
	}
	resp, err := p.run(context.Background(), wire.OpRead, &wire.Request{})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("run: %v", err)
	}
	if p.hedges.Value() != 1 || p.hedgeWins.Value() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", p.hedges.Value(), p.hedgeWins.Value())
	}
}

// TestWritesNeverHedge: hedging is idempotent-ops-only.
func TestWritesNeverHedge(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 1, Seed: 1,
		Hedge: HedgeOptions{
			Enabled: true, MinSamples: 1,
			MinDelay: time.Nanosecond, MaxDelay: time.Nanosecond,
			BudgetFraction: 1,
		},
	})
	p.lat.ObserveNs(int64(time.Millisecond))
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		time.Sleep(2 * time.Millisecond) // give a hedge timer every chance to fire
		return okResponse(), nil
	}
	for _, op := range []uint8{wire.OpWrite, wire.OpWriteBatch} {
		if _, err := p.run(context.Background(), op, &wire.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	if p.hedges.Value() != 0 {
		t.Fatalf("write ops hedged %d times", p.hedges.Value())
	}
}

// TestHedgeBudget: hedges are capped at BudgetFraction of attempts.
func TestHedgeBudget(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 1, Seed: 1,
		Hedge: HedgeOptions{
			Enabled: true, MinSamples: 1,
			MinDelay: time.Nanosecond, MaxDelay: time.Nanosecond,
			BudgetFraction: 0.10,
		},
	})
	p.lat.ObserveNs(int64(time.Millisecond))
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		time.Sleep(200 * time.Microsecond)
		return okResponse(), nil
	}
	const ops = 200
	for i := 0; i < ops; i++ {
		if _, err := p.run(context.Background(), wire.OpRead, &wire.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	// Every eligible op sleeps past the 1ns delay, so without the
	// budget every op would hedge. The cap allows fraction×attempts
	// (attempts include hedge lanes, hence the slack term).
	if h := p.hedges.Value(); h > ops/5 {
		t.Fatalf("hedges = %d for %d ops, budget not enforced", h, ops)
	}
}

// TestHedgeBudgetConcurrent: the budget binds when a hedge launches,
// not only when its operation starts. Every op here passes the start
// check together and then waits out the hedge delay, so a start-only
// check would launch one hedge per op.
func TestHedgeBudgetConcurrent(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 1, Seed: 1,
		Hedge: HedgeOptions{
			Enabled: true, MinSamples: 1,
			MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond,
			BudgetFraction: 0.10,
		},
	})
	p.lat.ObserveNs(int64(time.Millisecond))
	p.attempts.Add(100) // history: the budget admits ~10 more hedges
	release := make(chan struct{})
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		select {
		case <-release:
			return okResponse(), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	const ops = 32
	done := make(chan error, ops)
	for i := 0; i < ops; i++ {
		go func() {
			_, err := p.run(context.Background(), wire.OpRead, &wire.Request{})
			done <- err
		}()
	}
	time.Sleep(100 * time.Millisecond) // every hedge timer has fired
	close(release)
	for i := 0; i < ops; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	limit := int64(0.10*float64(p.attempts.Value())) + 2
	if h := p.hedges.Value(); h > limit {
		t.Fatalf("hedges = %d of %d attempts, budget allows %d", h, p.attempts.Value(), limit)
	}
}

// TestAttemptTimeoutIsRetryableTransportFault: an attempt that
// outlives AttemptTimeout while the caller is still live is a hung
// connection, not a caller giving up — it must be retried, typed as a
// transport fault, counted against the breaker, and evict the
// connection pool so the retry dials fresh.
func TestAttemptTimeoutIsRetryableTransportFault(t *testing.T) {
	evicts := 0
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 3, Seed: 1,
		BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
		AttemptTimeout: 10 * time.Millisecond,
		Breaker:        BreakerOptions{FailureThreshold: 3, Cooldown: time.Hour, HalfOpenProbes: 1},
	})
	p.evict = func() { evicts++ }
	attempts := 0
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		attempts++
		<-ctx.Done() // a blackholed connection: only the attempt deadline gets out
		return nil, ctx.Err()
	}
	_, err := p.run(context.Background(), wire.OpRead, &wire.Request{})
	if err == nil {
		t.Fatal("expected failure")
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (attempt timeout not retried)", attempts)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("attempt timeout not typed as transport fault: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("typed timeout lost the underlying cause: %v", err)
	}
	if !Typed(err) {
		t.Fatalf("final error not typed: %v", err)
	}
	if got := p.retriesTransport.Value(); got != 2 {
		t.Fatalf("retriesTransport = %d, want 2", got)
	}
	if got := p.breakers[0].state.Load(); got != BreakerOpen {
		t.Fatalf("3 hung attempts left breaker state %d, want open", got)
	}
	if evicts != 3 {
		t.Fatalf("evicts = %d, want one per timed-out attempt", evicts)
	}
}

// TestCallerDeadlineStaysTerminal: the caller's own deadline expiring
// mid-attempt is their signal — no retry, no transport typing, no
// breaker poisoning.
func TestCallerDeadlineStaysTerminal(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 5, Seed: 1,
		AttemptTimeout: time.Hour,
		Breaker:        BreakerOptions{FailureThreshold: 1, Cooldown: time.Hour, HalfOpenProbes: 1},
	})
	attempts := 0
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		attempts++
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := p.run(ctx, wire.OpRead, &wire.Request{})
	if err == nil {
		t.Fatal("expected failure")
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (caller deadline must not retry)", attempts)
	}
	var te *TransportError
	if errors.As(err, &te) {
		t.Fatalf("caller deadline mistyped as transport fault: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller deadline lost: %v", err)
	}
	if got := p.breakers[0].state.Load(); got != BreakerClosed {
		t.Fatalf("caller deadline poisoned the breaker (state %d)", got)
	}
}

// TestOpTimeout: the end-to-end budget cuts retries short and the
// final error still wraps the last cause.
func TestOpTimeout(t *testing.T) {
	p := newPolicy(ResilienceOptions{
		MaxAttempts: 100, Seed: 1,
		BaseBackoff: 20 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		OpTimeout: 60 * time.Millisecond,
		Breaker:   BreakerOptions{Disabled: true},
	})
	attempts := 0
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		attempts++
		return nil, &TransportError{Detail: "reset"}
	}
	start := time.Now()
	_, err := p.run(context.Background(), wire.OpRead, &wire.Request{})
	if err == nil {
		t.Fatal("expected failure")
	}
	if attempts >= 100 {
		t.Fatalf("OpTimeout did not bound the retry loop (%d attempts)", attempts)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("run overstayed its budget: %v", elapsed)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("final error lost the last cause: %v", err)
	}
}

// BenchmarkClientReadNoFault gates the policy engine's no-fault success
// path at zero heap allocations per operation: breaker gate, attempt
// dispatch, latency observation, and result classification all run on
// atomics with the attempt function stored in the policy (no per-op
// closures). CI's bench-smoke job fails if this ever allocates.
func BenchmarkClientReadNoFault(b *testing.B) {
	p := newPolicy(ResilienceOptions{Seed: 1})
	resp := okResponse()
	p.attempt = func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
		return resp, nil
	}
	req := &wire.Request{Tenant: "bench", Addrs: []uint64{0}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := p.run(ctx, wire.OpRead, req)
		if err != nil || r != resp {
			b.Fatal(err)
		}
	}
}

package netchaos

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sudoku/internal/rng"
)

// echoUpstream accepts connections and echoes bytes until closed.
func echoUpstream(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func newProxy(t *testing.T, upstream string, plan Plan, seed uint64) *Proxy {
	t.Helper()
	p, err := New(upstream, plan, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestParseStrict(t *testing.T) {
	good := `{"name":"x","phases":[{"name":"a","latency_ms":3,"reset_prob":0.5}]}`
	p, err := Parse([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if p.Phases[0].LatencyMs != 3 || p.Phases[0].ResetProb != 0.5 {
		t.Fatalf("parsed %+v", p)
	}
	for name, bad := range map[string]string{
		"unknown field": `{"name":"x","phases":[{"resett_prob":1}]}`,
		"no phases":     `{"name":"x","phases":[]}`,
		"bad prob":      `{"name":"x","phases":[{"reset_prob":1.5}]}`,
		"prob sum":      `{"name":"x","phases":[{"reset_prob":0.5,"torn_prob":0.4,"trunc_prob":0.2}]}`,
		"neg latency":   `{"name":"x","phases":[{"latency_ms":-1}]}`,
		"not json":      `{{{`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, bad)
		}
	}
}

func TestPresetsValid(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestLoad: a preset name resolves as-is, anything else is a plan
// file — even a bare name with no path separator.
func TestLoad(t *testing.T) {
	p, err := Load("gate")
	if err != nil || p.Name != "gate" || len(p.Phases) != 5 {
		t.Fatalf("Load(gate) = %+v, %v", p, err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(file, []byte(`{"name":"custom","phases":[{"latency_ms":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := Load(file); err != nil || p.Name != "custom" {
		t.Fatalf("Load(file) = %+v, %v", p, err)
	}
	t.Chdir(dir)
	if p, err := Load("plan.json"); err != nil || p.Name != "custom" {
		t.Fatalf("Load(relative file) = %+v, %v", p, err)
	}
	if _, err := Load("nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("Load(nope) error %v", err)
	}
	if err := os.WriteFile(file, []byte(`{"name":"x","phases":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(file); err == nil {
		t.Fatal("invalid plan file accepted")
	}
}

// TestDrawDeterminism pins the package contract: the draw vector for
// (seed, conn, dir, chunk) is fixed. Two independent streams over the
// same lane must agree draw for draw; a different seed or lane must
// diverge.
func TestDrawDeterminism(t *testing.T) {
	const seed, conn = 42, 7
	a := rng.New(subSeed(seed, 3*conn+1))
	b := rng.New(subSeed(seed, 3*conn+1))
	other := rng.New(subSeed(seed, 3*conn+2))
	diverged := false
	for chunk := 0; chunk < 1000; chunk++ {
		for d := 0; d < 3; d++ {
			av, bv, ov := a.Float64(), b.Float64(), other.Float64()
			if av != bv {
				t.Fatalf("chunk %d draw %d: %g != %g", chunk, d, av, bv)
			}
			if av != ov {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("sibling lanes produced identical streams")
	}
}

func TestPassThrough(t *testing.T) {
	up := echoUpstream(t)
	p := newProxy(t, up.Addr().String(), Plan{Name: "t", Phases: []Phase{{}}}, 1)
	c := dial(t, p.Addr())
	msg := []byte(strings.Repeat("sudoku", 100))
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatal("echo corrupted through clean phase")
	}
	st := p.Stats()
	if st.Conns != 1 || st.BytesUp == 0 || st.BytesDown == 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Resets+st.TornWrites+st.Truncations+st.Blackholed != 0 {
		t.Fatalf("clean phase injected faults: %+v", st)
	}
}

func TestResetKillsConnection(t *testing.T) {
	up := echoUpstream(t)
	p := newProxy(t, up.Addr().String(), Plan{Name: "t", Phases: []Phase{{ResetProb: 1}}}, 1)
	c := dial(t, p.Addr())
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 16)); err == nil {
		t.Fatal("read succeeded through a reset-everything phase")
	} else if errors.Is(err, io.EOF) {
		// A clean EOF is acceptable only if the RST raced the FIN; the
		// usual outcome is ECONNRESET. Either way the conn died.
		t.Log("connection closed with EOF instead of RST")
	}
	if p.Stats().Resets == 0 {
		t.Fatalf("no reset recorded: %+v", p.Stats())
	}
}

func TestTruncationIsDownstreamOnly(t *testing.T) {
	up := echoUpstream(t)
	p := newProxy(t, up.Addr().String(), Plan{Name: "t", Phases: []Phase{{TruncProb: 1}}}, 9)
	c := dial(t, p.Addr())
	msg := []byte(strings.Repeat("x", 2048))
	// Upstream direction must pass untouched (truncation models a
	// truncated *response*), so the echo server sees the full message;
	// the response comes back as a prefix followed by clean EOF.
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("truncated read must end in clean EOF, got %v", err)
	}
	if len(got) >= len(msg) {
		t.Fatalf("got %d bytes, expected a strict prefix of %d", len(got), len(msg))
	}
	st := p.Stats()
	if st.Truncations == 0 || st.BytesUp == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBlackholeAnswersNothing(t *testing.T) {
	up := echoUpstream(t)
	p := newProxy(t, up.Addr().String(), Plan{Name: "t", Phases: []Phase{{BlackholeProb: 1}}}, 3)
	c := dial(t, p.Addr())
	if _, err := c.Write([]byte("anyone home")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	var nerr net.Error
	if _, err := c.Read(make([]byte, 16)); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("blackholed read returned %v, want timeout", err)
	}
	if p.Stats().Blackholed != 1 {
		t.Fatalf("stats %+v", p.Stats())
	}
}

func TestLatencyPhaseDelays(t *testing.T) {
	up := echoUpstream(t)
	p := newProxy(t, up.Addr().String(), Plan{Name: "t", Phases: []Phase{{LatencyMs: 50}}}, 1)
	c := dial(t, p.Addr())
	start := time.Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	// Two pumps (up, down) each add ≥50ms.
	if el := time.Since(start); el < 100*time.Millisecond {
		t.Fatalf("round trip took %v through a 2×50ms latency phase", el)
	}
	if p.Stats().Delayed < 2 {
		t.Fatalf("stats %+v", p.Stats())
	}
}

func TestPhaseAdvanceChangesWeather(t *testing.T) {
	up := echoUpstream(t)
	plan := Plan{Name: "t", Phases: []Phase{{Name: "clean"}, {Name: "broken", ResetProb: 1}}}
	p := newProxy(t, up.Addr().String(), plan, 1)

	c := dial(t, p.Addr())
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 2)); err != nil {
		t.Fatalf("clean phase failed: %v", err)
	}

	if got := p.Advance(); got != 1 || p.PhaseName() != "broken" {
		t.Fatalf("Advance() = %d (%s)", got, p.PhaseName())
	}
	c2 := dial(t, p.Addr())
	if _, err := c2.Write([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Read(make([]byte, 16)); err == nil {
		t.Fatal("broken phase forwarded a response")
	}
	// Advance saturates.
	if got := p.Advance(); got != 1 {
		t.Fatalf("Advance past end = %d", got)
	}
	p.SetPhase(-5)
	if p.PhaseIndex() != 0 {
		t.Fatalf("SetPhase(-5) → %d", p.PhaseIndex())
	}
}

func TestCloseUnblocksBlackholeAndIsIdempotent(t *testing.T) {
	up := echoUpstream(t)
	p := newProxy(t, up.Addr().String(), Plan{Name: "t", Phases: []Phase{{BlackholeProb: 1}}}, 3)
	c := dial(t, p.Addr())
	if _, err := c.Write([]byte("stuck")); err != nil {
		t.Fatal(err)
	}
	// Give the serve goroutine a moment to enter the blackhole copy.
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		p.Close() // must not hang on the blackholed conn
		p.Close() // and must be safe twice
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a blackholed connection")
	}
}

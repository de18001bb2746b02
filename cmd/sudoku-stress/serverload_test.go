package main

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"sudoku"
	"sudoku/internal/reqtrace"
	"sudoku/internal/server"
	"sudoku/internal/server/tenant"
)

// startDaemon serves a 1 MB engine the way sudoku-cached does — the
// tenant API plus /metrics and /debug/flightrec on an h2c listener —
// with the scrub daemon storming lightly so the RAS tap has traffic.
// It returns the listen address; cleanup tears everything down.
func startDaemon(t *testing.T) string {
	t.Helper()
	eng, err := sudoku.NewConcurrent(buildConfig(options{cachemb: 1, seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(uint64(eng.Geometry().Lines), []tenant.Config{
		{Name: "alpha", Lines: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartStormControl(sudoku.StormConfig{MinInterval: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartScrub(sudoku.ScrubDaemonConfig{Interval: 20 * time.Millisecond, StormPerPass: 2}); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Engine: eng, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	metrics := eng.NewRegistry()
	srv.Register(metrics)
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	mux.Handle("/metrics", metrics)
	mux.Handle("/debug/flightrec", reqtrace.Handler(eng.Tracer()))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: mux, Protocols: &protos}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		_ = hs.Close()
		_ = eng.StopScrub()
		_ = eng.StopStormControl()
	})
	return ln.Addr().String()
}

// TestRunServerSwarm drives the plain swarm against an in-process
// daemon with each codec: every read shadow-verifies, and the run must
// pass its always-on gates (zero SDC, zero dropped tap events, no
// failed operations). The short-stripe case gives each goroutine fewer
// lines than a batch holds, so batches name lines twice.
func TestRunServerSwarm(t *testing.T) {
	addr := startDaemon(t)
	for _, tc := range []struct{ name, codec, lines string }{
		{"json", "json", "1024"},
		{"binary", "binary", "1024"},
		{"short-stripes", "binary", "32"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{
				"-server", addr, "-codec", tc.codec, "-duration", "300ms",
				"-goroutines", "4", "-lines", tc.lines, "-batchfrac", "0.2",
				"-settle", "2s", "-quiet",
			}, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			s := out.String()
			for _, want := range []string{"codec=" + tc.codec, "sdcs=0", "tap-dropped=0", "swarm: PASS"} {
				if !strings.Contains(s, want) {
					t.Fatalf("output missing %q:\n%s", want, s)
				}
			}
		})
	}
}

// TestRunServerSwarmNamesFirstFailure: a plain-swarm operation that
// fails other than by a shed or a per-item DUE — here an address past
// the tenant's window — fails the run, and the error names it.
func TestRunServerSwarmNamesFirstFailure(t *testing.T) {
	addr := startDaemon(t)
	err := run([]string{
		"-server", addr, "-duration", "200ms", "-goroutines", "2",
		"-lines", "16384", "-settle", "1s", "-quiet",
	}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "beyond 8192-line window") {
		t.Fatalf("error %v, want the first out-of-window failure named", err)
	}
}

// TestRunNetchaosGate routes the swarm through the in-process fault
// proxy on the gate plan: typed errors only, a full breaker cycle,
// hedges within budget, faults fired, progress, and zero SDC.
func TestRunNetchaosGate(t *testing.T) {
	addr := startDaemon(t)
	start := time.Now()
	var out bytes.Buffer
	err := run([]string{
		"-server", addr, "-netchaos", "gate", "-duration", "1s",
		"-goroutines", "4", "-lines", "1024", "-settle", "5s", "-quiet",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{`phase 5/5 "recovery"`, "sdcs=0", "untyped=0", "netchaos: PASS"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	t.Logf("gate ran in %v", time.Since(start).Round(time.Millisecond))
}

// TestSwarmLineImagesDistinct: the swarm's line content must tell
// every (line, version) pair in its domain apart, or an SDC that lands
// another line's or another version's bytes passes verification. The
// former per-byte XOR stripe collapsed the domain to 256 images (line
// 1 and line 256 were byte-identical at every version, as were
// versions 256 apart).
func TestSwarmLineImagesDistinct(t *testing.T) {
	const lines, versions = 8192, 300
	buf := make([]byte, 64)
	seen := make(map[[64]byte]uint64, lines)
	for v := uint64(1); v <= versions; v++ {
		clear(seen)
		for l := uint64(0); l < lines; l++ {
			fillLine(buf, l*64, v)
			// Word 0 carries the version, so images of different
			// versions always differ; within a version, lines must.
			if gen := binary.LittleEndian.Uint64(buf); gen != v {
				t.Fatalf("line %d version %d: word 0 = %d", l, v, gen)
			}
			key := [64]byte(buf)
			if prev, dup := seen[key]; dup {
				t.Fatalf("version %d: lines %d and %d have identical content", v, prev, l)
			}
			seen[key] = l
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sudoku"
	"sudoku/internal/server"
	"sudoku/internal/server/tenant"
)

// TestSelfcheck runs the full -selfcheck path: ephemeral port, both
// codecs, two strict scrapes with monotone counters, the deep-repair
// trace probe, and the event-tap gate.
func TestSelfcheck(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-selfcheck", "-cachemb", "1", "-scrub", "5ms", "-storm", "20",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"selfcheck: event tap delivered", "selfcheck: PASS"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in output:\n%s", want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-cachemb", "0"},
		{"-storm", "-1"},
		{"-scrub", "0s"},
		{"-shards", "3"}, // not a power of two
		{"-headroom", "1"},
		{"-maxinflight", "0"},
		{"-tenants", "alpha"},
		{"-restore"}, // without -checkpoint-dir
	}
	for _, args := range cases {
		if err := run(append([]string{"-selfcheck"}, args...), &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestMuxEndpoints exercises every route on the mux without a real
// listener.
func TestMuxEndpoints(t *testing.T) {
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = 1
	cfg.GroupSize = 64
	eng, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(uint64(eng.Geometry().Lines), []tenant.Config{{Name: "alpha", Lines: 64}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Engine: eng, Tenants: reg, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	metrics := eng.NewRegistry()
	srv.Register(metrics)
	publishExpvar(metrics)
	mux := newMux(srv, metrics, eng)

	do := func(method, path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}

	if rec := do("GET", "/metrics"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "sudoku_reads_total") ||
		!strings.Contains(rec.Body.String(), "sudoku_server_inflight") {
		t.Fatalf("/metrics: %d\n%.200s", rec.Code, rec.Body.String())
	}
	if rec := do("GET", "/healthz"); rec.Code != http.StatusOK ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("/healthz: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	rec := do("GET", "/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["sudoku"]; !ok {
		t.Fatal("/debug/vars missing the sudoku tree")
	}
	if rec := do("GET", "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/: %d", rec.Code)
	}
	rec = do("GET", "/debug/flightrec")
	var fr struct {
		Traces json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatalf("/debug/flightrec: %v", err)
	}
	if string(fr.Traces) != "[]" {
		t.Fatalf("/debug/flightrec traces = %s on an idle engine, want []", fr.Traces)
	}
	if rec := do("GET", "/admin/degrade"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"degraded":false`) {
		t.Fatalf("GET /admin/degrade: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do("POST", "/admin/degrade?on=x"); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /admin/degrade?on=x: %d, want 400", rec.Code)
	}
	if rec := do("POST", "/v1/op"); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /v1/op with no frame: %d, want 400", rec.Code)
	}
}

// TestHealthzStalled pins the /healthz status contract: 503 while the
// scrub watchdog flags a stalled pass or the checkpoint daemon has
// gone stale, and 200 while degraded, since a degraded server still
// serves reads.
func TestHealthzStalled(t *testing.T) {
	var (
		h   sudoku.Health
		deg bool
	)
	handler := healthz(func() sudoku.Health { return h },
		func() (bool, string) { return deg, "operator" })
	get := func() (int, map[string]any) {
		t.Helper()
		rec := httptest.NewRecorder()
		handler(rec, httptest.NewRequest("GET", "/healthz", nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("body %q: %v", rec.Body.String(), err)
		}
		return rec.Code, body
	}

	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("healthy status %d", code)
	}
	h = sudoku.Health{ScrubStalled: true, ScrubWatchdog: time.Second}
	code, body := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("scrub-stalled status %d", code)
	}
	if body["scrub_stalled"] != true || body["scrub_watchdog_ns"] != float64(time.Second) {
		t.Fatalf("scrub-stalled body %v", body)
	}
	h = sudoku.Health{CheckpointStale: true}
	if code, body = get(); code != http.StatusServiceUnavailable || body["checkpoint_stale"] != true {
		t.Fatalf("checkpoint-stale: status %d body %v", code, body)
	}
	h, deg = sudoku.Health{}, true
	if code, body = get(); code != http.StatusOK || body["degraded"] != true || body["degraded_reason"] != "operator" {
		t.Fatalf("degraded: status %d body %v, want 200 with the degraded flag", code, body)
	}
}

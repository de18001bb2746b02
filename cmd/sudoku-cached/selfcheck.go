package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"sudoku"
	"sudoku/client"
	"sudoku/internal/reqtrace"
	"sudoku/internal/server/lifecycle"
	"sudoku/internal/server/wire"
	"sudoku/internal/telemetry"
)

// selfcheck drives the full stack end to end on an ephemeral port and
// exits: a strict /metrics scrape, both codecs through the client
// (singles and batches), health, a degraded-mode round trip, then the
// deterministic deep-repair probe with the alpha event tap open, a
// second strict scrape that every counter must have advanced against,
// and the drain sequence.
func selfcheck(mux http.Handler, eng *sudoku.Concurrent, drains []lifecycle.Step, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := newH2CServer(mux)
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	addr := ln.Addr().String()
	base := "http://" + addr
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, err := scrape(base + "/metrics")
	if err != nil {
		return fmt.Errorf("selfcheck first scrape: %w", err)
	}

	for _, codec := range []uint8{wire.CodecJSON, wire.CodecBinary} {
		if err := roundTrips(ctx, client.New(client.Options{Addr: addr, Codec: codec}), codec); err != nil {
			return err
		}
	}

	cl := client.New(client.Options{Addr: addr})
	h, err := cl.Health(ctx, "alpha")
	if err != nil {
		return fmt.Errorf("selfcheck health: %w", err)
	}
	fmt.Fprintf(out, "selfcheck: health storm=%s scrub_running=%v\n", h.Storm, h.ScrubRunning)
	if err := checkHealthz(base + "/healthz"); err != nil {
		return fmt.Errorf("selfcheck /healthz: %w", err)
	}

	if err := degradedRoundTrip(ctx, cl, base); err != nil {
		return err
	}
	fmt.Fprintln(out, "selfcheck: degraded mode shed writes, served reads, recovered")

	// Every client op above carried trace context into the server.
	rec, err := reqtrace.FetchRecord(base + "/debug/flightrec")
	if err != nil {
		return fmt.Errorf("selfcheck flightrec: %w", err)
	}
	if rec.Begun < 8 {
		return fmt.Errorf("selfcheck flightrec: begun_total = %d, want the client ops traced", rec.Begun)
	}

	// The tap stays open across the probe: three-bit flips on every
	// line put group repairs into alpha's window, so it must deliver.
	stream, err := cl.Events(ctx, "alpha")
	if err != nil {
		return fmt.Errorf("selfcheck events: %w", err)
	}
	defer stream.Close()
	evCh := make(chan error, 1)
	go func() {
		_, err := stream.Next()
		evCh <- err
	}()
	// The probe faults every line, so it runs after the data round trips.
	rec, probeTraced, err := traceProbe(base, eng)
	if err != nil {
		return fmt.Errorf("selfcheck trace probe: %w", err)
	}
	select {
	case err := <-evCh:
		if err != nil {
			return fmt.Errorf("selfcheck event stream: %w", err)
		}
		fmt.Fprintln(out, "selfcheck: event tap delivered")
	case <-time.After(5 * time.Second):
		return errors.New("selfcheck: event tap delivered nothing while every line was faulted")
	}

	second, err := scrape(base + "/metrics")
	if err != nil {
		return fmt.Errorf("selfcheck second scrape: %w", err)
	}
	checked, err := checkCounters(first, second)
	if err != nil {
		return fmt.Errorf("selfcheck metrics: %w", err)
	}
	for _, name := range []string{
		`sudoku_server_requests_total{outcome="ok",tenant="alpha"}`,
		"sudoku_server_inflight",
		"sudoku_server_storm_state",
	} {
		if _, ok := second[name]; !ok {
			return fmt.Errorf("selfcheck metrics: series %s missing", name)
		}
	}
	if second[`sudoku_server_requests_total{outcome="ok",tenant="alpha"}`] < 8 {
		return fmt.Errorf("selfcheck metrics: request counter did not advance")
	}
	if second["sudoku_traces_begun_total"]-float64(probeTraced) < 8 {
		return fmt.Errorf("selfcheck metrics: traces_begun did not advance — wire trace context lost")
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	for _, st := range drains {
		if err := st.Run(dctx); err != nil {
			return fmt.Errorf("selfcheck drain %s: %w", st.Name, err)
		}
	}
	fmt.Fprintf(out, "selfcheck: PASS (%d counter series monotone, reads %v -> %v, "+
		"%d anomalous traces, %d begun, %d drops)\n",
		checked, first["sudoku_reads_total"], second["sudoku_reads_total"],
		len(rec.Traces), rec.Begun, rec.Dropped)
	return nil
}

// roundTrips writes and reads back one line and one three-line batch
// through cl, failing on any byte that does not survive the trip.
func roundTrips(ctx context.Context, cl *client.Client, codec uint8) error {
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i) ^ codec
	}
	if err := cl.Write(ctx, "alpha", 0, line); err != nil {
		return fmt.Errorf("selfcheck write (codec %d): %w", codec, err)
	}
	got, err := cl.Read(ctx, "alpha", 0)
	if err != nil {
		return fmt.Errorf("selfcheck read (codec %d): %w", codec, err)
	}
	for i := range line {
		if got[i] != line[i] {
			return fmt.Errorf("selfcheck (codec %d): byte %d = %#x, want %#x", codec, i, got[i], line[i])
		}
	}
	addrs := []uint64{64, 128, 192}
	data := make([]byte, 3*64)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := cl.WriteBatch(ctx, "alpha", addrs, data); err != nil {
		return fmt.Errorf("selfcheck batch write (codec %d): %w", codec, err)
	}
	back, err := cl.ReadBatch(ctx, "alpha", addrs)
	if err != nil {
		return fmt.Errorf("selfcheck batch read (codec %d): %w", codec, err)
	}
	for i := range data {
		if back[i] != data[i] {
			return fmt.Errorf("selfcheck batch (codec %d): byte %d mismatch", codec, i)
		}
	}
	return nil
}

// degradedRoundTrip flips degraded mode through the admin endpoint:
// writes shed with the typed reason, reads keep flowing, and recovery
// restores writes.
func degradedRoundTrip(ctx context.Context, cl *client.Client, base string) error {
	setDegraded := func(on string) error {
		resp, err := http.Post(base+"/admin/degrade?on="+on, "", nil)
		if err != nil {
			return fmt.Errorf("selfcheck degrade on=%s: %w", on, err)
		}
		resp.Body.Close()
		return nil
	}
	if err := setDegraded("true"); err != nil {
		return err
	}
	var shed *client.ShedError
	if err := cl.Write(ctx, "alpha", 0, make([]byte, 64)); !errors.As(err, &shed) {
		return fmt.Errorf("selfcheck degraded write returned %v, want shed", err)
	} else if shed.Reason() != "degraded" {
		return fmt.Errorf("selfcheck degraded write shed reason %q", shed.Reason())
	}
	if _, err := cl.Read(ctx, "alpha", 0); err != nil {
		return fmt.Errorf("selfcheck degraded read: %w", err)
	}
	if h, err := cl.Health(ctx, "alpha"); err != nil || !h.Degraded {
		return fmt.Errorf("selfcheck degraded health = %+v, %v", h, err)
	}
	if err := setDegraded("false"); err != nil {
		return err
	}
	if err := cl.Write(ctx, "alpha", 0, make([]byte, 64)); err != nil {
		return fmt.Errorf("selfcheck write after degrade recovery: %w", err)
	}
	return nil
}

// checkHealthz requires a 200 JSON body carrying the storm, scrub and
// trace keys.
func checkHealthz(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return fmt.Errorf("JSON: %w", err)
	}
	for _, key := range []string{"storm", "scrub_running", "scrub_stalled", "last_anomaly_age_ns"} {
		if _, ok := health[key]; !ok {
			return fmt.Errorf("missing %s", key)
		}
	}
	return nil
}

// checkCounters requires every *_total series of first to be monotone
// non-decreasing in second, and the traffic and fault-injection
// counters to have strictly advanced. It returns the number of series
// checked.
func checkCounters(first, second map[string]float64) (int, error) {
	checked := 0
	for name, v := range first {
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		if !strings.HasSuffix(family, "_total") {
			continue
		}
		checked++
		if second[name] < v {
			return 0, fmt.Errorf("counter %s went backwards: %v -> %v", name, v, second[name])
		}
	}
	if checked == 0 {
		return 0, errors.New("no *_total series in exposition")
	}
	for _, name := range []string{"sudoku_reads_total", "sudoku_writes_total", "sudoku_faults_injected_total"} {
		if second[name] <= first[name] {
			return 0, fmt.Errorf("%s did not advance: %v -> %v", name, first[name], second[name])
		}
	}
	return checked, nil
}

// traceProbe drives deterministic deep repairs through the traced read
// path and gates /debug/flightrec on the result: the record must hold
// anomalous traces whose span timestamps are monotone and whose repair
// rungs appear in ladder order, and at least one trace must have gone
// past ECC-1. Each round reads a window of addresses so they are
// resident, flips three bits in each one's stored line — past ECC-1's
// reach — and re-reads it at once, so the demand read, not the scrub
// daemon, meets the fault and climbs to group repair. Faulting only
// the probed lines keeps the scrub's follow-up work to one RAID
// reconstruction per line; extra rounds absorb the rare line the scrub
// reaches first. traced is the number of traces the probe began.
func traceProbe(base string, c *sudoku.Concurrent) (rec *reqtrace.FlightRecord, traced int, err error) {
	window := uint64(min(probeWindow, c.Geometry().Lines))
	rbuf := make([]byte, 64)
	for round := uint64(0); round < 5; round++ {
		lo := round * window // fresh lines each round: no retired leftovers
		for a := lo; a < lo+window; a++ {
			_, _ = c.TraceRead(uint64(0xf111)<<32|a, a*64, rbuf)
			for _, bit := range [...]int{1, 7, 13} {
				// A line that went non-resident or retired just takes no
				// fault; its re-read is then a plain hit.
				_ = c.InjectFault(a*64, bit)
			}
			// Read errors are acceptable here: a read that reaches DUE
			// data loss is itself an anomalous (published) trace.
			_, _ = c.TraceRead(uint64(0xb10b)<<32|a, a*64, rbuf)
		}
		traced += 2 * int(window)
		rec, err := reqtrace.FetchRecord(base + "/debug/flightrec")
		if err != nil {
			return nil, traced, err
		}
		if err := rec.Check(); err != nil {
			return nil, traced, err
		}
		for _, tj := range rec.Traces {
			if tj.Deep() {
				return rec, traced, nil
			}
		}
	}
	return nil, traced, errors.New("no deep-repair trace after 5 probe rounds")
}

// probeWindow is the number of lines traceProbe faults per round.
const probeWindow = 64

// scrape fetches one exposition and re-parses it with the strict
// checker, returning the flattened sample map.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return nil, fmt.Errorf("content type %q", ct)
	}
	return telemetry.ParseExposition(resp.Body)
}

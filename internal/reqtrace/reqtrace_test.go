package reqtrace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tp *Tracer
	tr := tp.Begin(1, 2)
	if tr != nil {
		t.Fatal("nil tracer produced a trace")
	}
	tr.Note(KindCRCDetect, 0, 0) // must not panic
	if tp.Finish(tr) {
		t.Fatal("nil finish published")
	}
	if tp.Ring() != nil || tp.Begun() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	var r *Ring
	if r.Published() != 0 || r.Dropped() != 0 || r.LastPublishUnixNano() != 0 {
		t.Fatal("nil ring counters")
	}
	if r.LastAnomalyAge(time.Now()) != -1 {
		t.Fatal("nil ring age")
	}
	if _, _, _, ok := r.Exemplar(0, 1<<40); ok {
		t.Fatal("nil ring exemplar")
	}
}

func TestTailSamplerPolicy(t *testing.T) {
	tp := NewTracer(Config{RingSize: 8, LatencyThreshold: time.Hour})
	// Boring trace: ECC-1 only, fast — not published.
	tr := tp.Begin(1, 1)
	tr.Note(KindCRCDetect, 64, 0)
	tr.Note(KindECC1, 64, 0)
	if tp.Finish(tr) {
		t.Fatal("ECC-1-only trace published")
	}
	// Deep repair — published.
	tr = tp.Begin(2, 1)
	tr.Note(KindCRCDetect, 64, 0)
	tr.Note(KindRAIDReconstruct, 64, 1)
	if !tr.Deep() {
		t.Fatal("RAID rung did not mark trace deep")
	}
	if !tp.Finish(tr) {
		t.Fatal("deep trace not published")
	}
	// Shed — published.
	tr = tp.Begin(3, 2)
	tr.Note(KindAdmission, 0, AdmissionStorm)
	if !tp.Finish(tr) {
		t.Fatal("shed trace not published")
	}
	// Quarantine — published.
	tr = tp.Begin(4, 1)
	tr.Note(KindQuarantine, 64, 0)
	if !tp.Finish(tr) {
		t.Fatal("quarantine trace not published")
	}
	// Seqlock fallback alone — routine, not published.
	tr = tp.Begin(5, 1)
	tr.Note(KindSeqlockFallback, 64, SeqlockSeqOdd)
	if tp.Finish(tr) {
		t.Fatal("seqlock-only trace published")
	}
	if got := tp.Ring().Published(); got != 3 {
		t.Fatalf("published %d, want 3", got)
	}
	// Latency trigger.
	tp2 := NewTracer(Config{RingSize: 8, LatencyThreshold: time.Nanosecond})
	tr = tp2.Begin(6, 1)
	time.Sleep(time.Microsecond)
	if !tp2.Finish(tr) {
		t.Fatal("over-threshold trace not published")
	}
}

func TestSpanCapacityAndMonotoneTimestamps(t *testing.T) {
	tp := NewTracer(Config{RingSize: 8})
	tr := tp.Begin(7, 1)
	for i := 0; i < MaxSpans+5; i++ {
		tr.Note(KindCRCDetect, uint64(i), 0)
	}
	if tr.N != MaxSpans || tr.DroppedSpans != 5 {
		t.Fatalf("N=%d dropped=%d", tr.N, tr.DroppedSpans)
	}
	for i := int32(1); i < tr.N; i++ {
		if tr.Spans[i].AtNs < tr.Spans[i-1].AtNs {
			t.Fatalf("span %d timestamp went backwards", i)
		}
	}
	tp.Finish(tr)
}

func TestRungOrderOK(t *testing.T) {
	at := func(kinds ...Kind) []Span {
		spans := make([]Span, len(kinds))
		for i, k := range kinds {
			spans[i] = Span{Kind: k, AtNs: int64(i)}
		}
		return spans
	}
	valid := [][]Span{
		at(), // empty
		at(KindCRCDetect, KindECC1),
		at(KindCRCDetect, KindRAIDReconstruct, KindSDR, KindHash2Retry, KindDUERefetch),
		at(KindShardPlan, KindCRCDetect, KindSDR),                  // non-rungs ignored
		at(KindCRCDetect, KindDUERefetch, KindCRCDetect, KindECC1), // re-entry after refetch
		at(KindSeqlockFallback, KindAdmission),                     // no rungs at all
	}
	for i, spans := range valid {
		if !RungOrderOK(spans) {
			t.Errorf("valid sequence %d rejected", i)
		}
	}
	invalid := [][]Span{
		at(KindECC1),                         // repair without detect
		at(KindCRCDetect, KindSDR, KindECC1), // ladder went backwards
		{{Kind: KindCRCDetect, AtNs: 5}, {Kind: KindECC1, AtNs: 3}}, // time went backwards
	}
	for i, spans := range invalid {
		if RungOrderOK(spans) {
			t.Errorf("invalid sequence %d accepted", i)
		}
	}
}

func TestRingWrapAndSnapshot(t *testing.T) {
	tp := NewTracer(Config{RingSize: 8})
	for i := 0; i < 20; i++ {
		tr := tp.Begin(uint64(i), 1)
		tr.Note(KindCRCDetect, 0, 0)
		tr.Note(KindDUERefetch, 0, 0)
		tp.Finish(tr)
	}
	traces := tp.Ring().Snapshot(nil)
	if len(traces) != 8 {
		t.Fatalf("snapshot %d traces, want 8", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].StartUnixNano > traces[i-1].StartUnixNano {
			t.Fatal("snapshot not newest-first")
		}
	}
	if got := tp.Ring().Published(); got != 20 {
		t.Fatalf("published %d", got)
	}
	if age := tp.Ring().LastAnomalyAge(time.Now()); age < 0 {
		t.Fatalf("age %v after publishes", age)
	}
}

func TestExemplarLookup(t *testing.T) {
	tp := NewTracer(Config{RingSize: 8, LatencyThreshold: time.Hour})
	tr := tp.Begin(0xabc, 1)
	tr.Note(KindCRCDetect, 0, 0)
	tr.Note(KindSDR, 0, 1)
	tp.Finish(tr)
	traces := tp.Ring().Snapshot(nil)
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	dur := traces[0].DurNs
	id, val, ts, ok := tp.Ring().Exemplar(dur, dur+1)
	if !ok || id != 0xabc || val != dur || ts == 0 {
		t.Fatalf("exemplar = %x/%d/%d/%v", id, val, ts, ok)
	}
	if _, _, _, ok := tp.Ring().Exemplar(dur+1, dur+2); ok {
		t.Fatal("out-of-range exemplar matched")
	}
}

func TestHandlerJSONRoundTrip(t *testing.T) {
	tp := NewTracer(Config{RingSize: 8})
	tr := tp.Begin(0xdeadbeef, 3)
	tr.Note(KindCRCDetect, 128, 0)
	tr.Note(KindRAIDReconstruct, 128, 2)
	tp.Finish(tr)

	rec := httptest.NewRecorder()
	Handler(tp).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrec", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var fr FlightRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Published != 1 || len(fr.Traces) != 1 || fr.Begun != 1 {
		t.Fatalf("record %+v", fr)
	}
	got := fr.Traces[0]
	if got.ID != "deadbeef" || got.Op != 3 || len(got.Spans) != 2 {
		t.Fatalf("trace %+v", got)
	}
	id, err := ParseID(got.ID)
	if err != nil || id != 0xdeadbeef {
		t.Fatalf("ParseID: %v %x", err, id)
	}
	spans := got.SpansDecoded()
	if spans[0].Kind != KindCRCDetect || spans[1].Kind != KindRAIDReconstruct || spans[1].Code != 2 {
		t.Fatalf("decoded spans %+v", spans)
	}
	if !RungOrderOK(spans) {
		t.Fatal("round-tripped spans failed rung validation")
	}
}

// TestTraceJSONDeep: the wire-form classifier agrees with the live
// trace's flags for every kind, so consumers of /debug/flightrec count
// deep traces exactly as the tail sampler does.
func TestTraceJSONDeep(t *testing.T) {
	for k := KindNone + 1; k < kindMax; k++ {
		tr := &Trace{}
		tr.reset(1, 0)
		tr.Note(KindCRCDetect, 0, 0)
		tr.Note(k, 0, 0)
		tj := TraceJSON{Spans: []SpanJSON{{Kind: "crc_detect"}, {Kind: k.String()}}}
		if tj.Deep() != tr.Deep() {
			t.Fatalf("kind %v: TraceJSON.Deep %v, Trace.Deep %v", k, tj.Deep(), tr.Deep())
		}
	}
	if (TraceJSON{Spans: []SpanJSON{{Kind: "garbage"}}}).Deep() {
		t.Fatal("unknown kind classified deep")
	}
}

func TestFlightRecordCheck(t *testing.T) {
	good := TraceJSON{ID: "ab", Spans: []SpanJSON{{Kind: "crc_detect", AtNs: 1}, {Kind: "sdr", AtNs: 2}}}
	cases := []struct {
		rec  FlightRecord
		want string // "" = passes
	}{
		{FlightRecord{Published: 1, Traces: []TraceJSON{good}}, ""},
		{FlightRecord{Published: 9}, "empty"},
		{FlightRecord{Published: 1, Traces: []TraceJSON{good, good}}, "published_total"},
		{FlightRecord{Published: 1, Traces: []TraceJSON{{ID: "xyz"}}}, "trace id"},
		{FlightRecord{Published: 1, Traces: []TraceJSON{{ID: "1", Spans: []SpanJSON{
			{Kind: "crc_detect", AtNs: 1}, {Kind: "sdr", AtNs: 2}, {Kind: "ecc1", AtNs: 3},
		}}}}, "rung order"},
	}
	for i, tc := range cases {
		err := tc.rec.Check()
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("case %d: %v", i, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Fatalf("case %d: error %v, want %q", i, err, tc.want)
		}
	}
}

func TestFetchRecord(t *testing.T) {
	tp := NewTracer(Config{RingSize: 8})
	tr := tp.Begin(7, 1)
	tr.Note(KindCRCDetect, 64, 0)
	tr.Note(KindHash2Retry, 64, 1)
	tp.Finish(tr)
	srv := httptest.NewServer(Handler(tp))
	defer srv.Close()
	rec, err := FetchRecord(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Traces) != 1 || !rec.Traces[0].Deep() {
		t.Fatalf("record %+v", rec)
	}
	if _, err := FetchRecord(srv.URL + "\x00"); err == nil {
		t.Fatal("bad URL accepted")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindNone; k < kindMax; k++ {
		if got := KindFromString(k.String()); got != k {
			t.Fatalf("kind %d round-tripped to %d", k, got)
		}
	}
	if KindFromString("garbage") != KindNone {
		t.Fatal("unknown kind name")
	}
}

// TestPublishConcurrency hammers publish/snapshot/exemplar from many
// goroutines; the race detector is the judge, and the counters must
// balance: every interesting trace is either published or dropped.
func TestPublishConcurrency(t *testing.T) {
	tp := NewTracer(Config{RingSize: 8, LatencyThreshold: time.Hour})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr := tp.Begin(uint64(w*per+i), 1)
				tr.Note(KindCRCDetect, 0, 0)
				tr.Note(KindSDR, 0, 1)
				tp.Finish(tr)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = tp.Ring().Snapshot(nil)
			_, _, _, _ = tp.Ring().Exemplar(0, 1<<40)
		}
	}()
	wg.Wait()
	if got := tp.Ring().Published() + tp.Ring().Dropped(); got != workers*per {
		t.Fatalf("published+dropped = %d, want %d", got, workers*per)
	}
}

// BenchmarkUntracedNote is the hot-path contract: a Note on a nil
// trace must be branch-only — no allocation, no time.Now.
func BenchmarkUntracedNote(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Note(KindCRCDetect, uint64(i), 0)
	}
}

// BenchmarkTracedOp sizes a full begin/annotate/finish cycle for a
// boring (unpublished) trace — the steady-state traced-request cost.
func BenchmarkTracedOp(b *testing.B) {
	tp := NewTracer(Config{RingSize: 64, LatencyThreshold: time.Hour})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := tp.Begin(uint64(i), 1)
		tr.Note(KindShardPlan, uint64(i), 0)
		tp.Finish(tr)
	}
}

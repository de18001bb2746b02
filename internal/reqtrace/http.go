package reqtrace

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// FlightRecord is the /debug/flightrec JSON payload. The same structs
// decode it on the consumer side (FetchRecord, used by the
// sudoku-cached selfcheck and sudoku-stress -tracegate), so the schema
// round-trips by construction.
type FlightRecord struct {
	// Published / Dropped mirror the ring counters.
	Published int64 `json:"published_total"`
	Dropped   int64 `json:"dropped_total"`
	// Begun is the total traces started (sampling denominator).
	Begun int64 `json:"begun_total"`
	// LastPublishUnixNano is 0 when nothing was ever published.
	LastPublishUnixNano int64 `json:"last_publish_unix_ns"`
	// Traces holds the recorded anomalous traces, newest first.
	Traces []TraceJSON `json:"traces"`
}

// TraceJSON is one recorded trace in wire form.
type TraceJSON struct {
	ID            string     `json:"id"` // hex, as propagated on the wire
	Op            uint8      `json:"op"`
	StartUnixNano int64      `json:"start_unix_ns"`
	DurNs         int64      `json:"dur_ns"`
	DroppedSpans  int32      `json:"dropped_spans,omitempty"`
	Spans         []SpanJSON `json:"spans"`
}

// SpanJSON is one span in wire form; Kind uses the stable names from
// Kind.String.
type SpanJSON struct {
	Kind string `json:"kind"`
	Addr uint64 `json:"addr"`
	Code uint8  `json:"code,omitempty"`
	AtNs int64  `json:"at_ns"`
}

// Record builds the FlightRecord snapshot of the tracer's ring.
func (tp *Tracer) Record() FlightRecord {
	rec := FlightRecord{Traces: []TraceJSON{}}
	if tp == nil {
		return rec
	}
	r := tp.ring
	rec.Published = r.Published()
	rec.Dropped = r.Dropped()
	rec.Begun = tp.Begun()
	rec.LastPublishUnixNano = r.LastPublishUnixNano()
	for _, t := range r.Snapshot(nil) {
		tj := TraceJSON{
			ID:            FormatID(t.ID),
			Op:            t.Op,
			StartUnixNano: t.StartUnixNano,
			DurNs:         t.DurNs,
			DroppedSpans:  t.DroppedSpans,
			Spans:         make([]SpanJSON, 0, t.N),
		}
		for i := int32(0); i < t.N; i++ {
			s := t.Spans[i]
			tj.Spans = append(tj.Spans, SpanJSON{
				Kind: s.Kind.String(),
				Addr: s.Addr,
				Code: s.Code,
				AtNs: s.AtNs,
			})
		}
		rec.Traces = append(rec.Traces, tj)
	}
	return rec
}

// Handler serves the flight recorder as /debug/flightrec JSON.
func Handler(tp *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tp.Record())
	})
}

// FormatID renders a trace ID the way it appears in exemplars and
// /debug/flightrec: lower-case hex, no 0x prefix.
func FormatID(id uint64) string { return strconv.FormatUint(id, 16) }

// ParseID inverts FormatID.
func ParseID(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }

// Spans converts wire-form spans back to their in-memory form for
// validation (RungOrderOK) on the consumer side.
func (t TraceJSON) SpansDecoded() []Span {
	out := make([]Span, 0, len(t.Spans))
	for _, s := range t.Spans {
		out = append(out, Span{Kind: KindFromString(s.Kind), Addr: s.Addr, Code: s.Code, AtNs: s.AtNs})
	}
	return out
}

// Deep reports whether the recorded trace went past ECC-1 on the
// repair ladder, classifying spans with the same kind flags as
// (*Trace).Deep.
func (t TraceJSON) Deep() bool {
	for _, s := range t.Spans {
		if kindFlags[KindFromString(s.Kind)]&flagDeep != 0 {
			return true
		}
	}
	return false
}

// Check applies the structural gates every snapshot must pass: it is
// non-empty, published_total covers the recorded traces (the counter
// is cumulative, so a view merged across snapshots passes too), every
// trace id parses, and every trace has monotone span timestamps with
// repair rungs in ladder order (RungOrderOK).
func (rec *FlightRecord) Check() error {
	if len(rec.Traces) == 0 {
		return errors.New("flight recorder is empty")
	}
	if rec.Published < int64(len(rec.Traces)) {
		return fmt.Errorf("published_total %d below %d recorded traces",
			rec.Published, len(rec.Traces))
	}
	for _, tj := range rec.Traces {
		if _, err := ParseID(tj.ID); err != nil {
			return fmt.Errorf("trace id %q: %w", tj.ID, err)
		}
		if !RungOrderOK(tj.SpansDecoded()) {
			return fmt.Errorf("trace %s violates rung order: %+v", tj.ID, tj.Spans)
		}
	}
	return nil
}

// FetchRecord GETs and decodes one /debug/flightrec snapshot.
func FetchRecord(url string) (*FlightRecord, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	rec := new(FlightRecord)
	if err := json.NewDecoder(resp.Body).Decode(rec); err != nil {
		return nil, fmt.Errorf("flightrec JSON: %w", err)
	}
	return rec, nil
}

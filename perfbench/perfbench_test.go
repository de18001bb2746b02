package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// firstOps returns the first n ops of worker w's stream, copied.
func firstOps(s spec, seed uint64, w, n int) []op {
	st := newStream(s, seed, w)
	out := make([]op, n)
	for i := range out {
		var o op
		st.next(&o)
		out[i] = op{write: o.write, lines: append([]uint64(nil), o.lines...)}
	}
	return out
}

func TestStreamIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, s := range specs {
		for w := 0; w < s.workers; w++ {
			a, b := firstOps(s, 7, w, 500), firstOps(s, 7, w, 500)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s worker %d: same seed gave different streams", s.name, w)
			}
			if reflect.DeepEqual(a, firstOps(s, 8, w, 500)) {
				t.Errorf("%s worker %d: seeds 7 and 8 gave the same stream", s.name, w)
			}
		}
		if s.workers > 1 && reflect.DeepEqual(firstOps(s, 7, 0, 500), firstOps(s, 7, 1, 500)) {
			t.Errorf("%s: workers 0 and 1 share a stream", s.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for _, s := range specs {
		ops := firstOps(s, 3, 0, 2000)
		writes := 0
		for _, o := range ops {
			if len(o.lines) != s.batch*s.group {
				t.Fatalf("%s: op of %d lines, want %d", s.name, len(o.lines), s.batch*s.group)
			}
			seen := map[uint64]bool{}
			for _, l := range o.lines {
				if l >= s.domains[0][1] || seen[l] {
					t.Fatalf("%s: line %d out of domain or repeated in one op", s.name, l)
				}
				seen[l] = true
			}
			if o.write {
				writes++
			}
		}
		got := float64(writes) / float64(len(ops))
		if got < s.writeFrac-0.05 || got > s.writeFrac+0.05 {
			t.Errorf("%s: write share %.3f, want about %.2f", s.name, got, s.writeFrac)
		}
	}
}

func TestPaperFlipsPerInterval(t *testing.T) {
	if got := paperFlipsPerInterval(); got != 768 {
		t.Errorf("paper BER over 16 MB = %d flips per interval, want 768", got)
	}
}

func TestShadowRoundTrip(t *testing.T) {
	sh := newShadow(1, 100, 4)
	exp, data := make([]byte, lineBytes), make([]byte, lineBytes)
	if sh.expect(2, exp) {
		t.Fatal("an unwritten line is verifiable")
	}
	v := sh.nextWrite(2, data)
	sh.ver[2] = v
	if !sh.expect(2, exp) || string(exp) != string(data) {
		t.Fatal("expect does not reproduce the acknowledged write")
	}
	sh.forget(2)
	if sh.expect(2, exp) {
		t.Fatal("a forgotten line is still verifiable")
	}
	if v2 := sh.nextWrite(2, data); v2 != v+1 {
		t.Fatalf("write after forget took version %d, want %d", v2, v+1)
	}
	other := make([]byte, lineBytes)
	newShadow(2, 100, 4).nextWrite(2, other)
	if string(other) == string(data) {
		t.Error("two workers write identical content to the same line number")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(append([]float64(nil), c.xs...))
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if median(nil) != 0 {
		t.Error("empty samples must give 0")
	}
}

func TestLatHistBuckets(t *testing.T) {
	prev := -1
	for _, ns := range []int64{-5, 0, 1, 63, 64, 65, 127, 128, 130, 1000, 123456, 1 << 39, 1<<40 - 1} {
		i := histBucket(ns)
		if i < prev {
			t.Fatalf("bucket of %d ns is %d, below the previous %d", ns, i, prev)
		}
		prev = i
		lo, w := histEdges(i)
		if v := float64(max(ns, 0)); v < lo || v >= lo+w {
			t.Errorf("%d ns in bucket %d = [%v, %v)", ns, i, lo, lo+w)
		}
		if lo >= 64 && w > lo/64 {
			t.Errorf("bucket %d = [%v, +%v) is wider than 1/64 of its edge", i, lo, w)
		}
	}
	if got := histBucket(1 << 50); got != histBuckets-1 {
		t.Errorf("an over-range duration went to bucket %d, want the last", got)
	}
}

func TestLatHistQuantilesNearExact(t *testing.T) {
	var h latHist
	if h.quantile(0.5) != 0 {
		t.Error("an empty histogram's median must be 0")
	}
	xs := make([]float64, 0, 20000)
	x := uint64(12345)
	for i := 0; i < cap(xs); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		ns := int64(200_000 + (x>>33)%300_000) // 200-500 µs
		h.add(ns)
		xs = append(xs, float64(ns))
	}
	for _, p := range []float64{0.5, 0.99} {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		exact := sorted[int(p*float64(len(sorted)))-1]
		if got := h.quantile(p); got < exact*(1-1.0/64) || got > exact*(1+1.0/64) {
			t.Errorf("p%v = %v, exact %v: off by more than a bucket", p, got, exact)
		}
	}
	var g latHist
	g.merge(&h)
	g.merge(&h)
	if g.n != 2*h.n || g.quantile(0.5) != h.quantile(0.5) {
		t.Error("merging a histogram with itself changed its median")
	}
}

// failingWorker returns a worker whose every op fails after taking d.
func failingWorker(t *testing.T, d time.Duration) *worker {
	s, err := lookupSpec("point-rw")
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker(s, 1, 0)
	w.exec = func(w *worker, o *op) time.Duration {
		w.countOp(errors.New("refused"))
		return d
	}
	return w
}

func TestFailedOpsAreNotLatencyOrCompletedOps(t *testing.T) {
	w := failingWorker(t, 5*time.Microsecond)
	w.record = true
	for i := 0; i < 10; i++ {
		w.step()
	}
	if w.ops != 10 || w.failed != 10 {
		t.Errorf("attempted %d, failed %d; want 10 and 10", w.ops, w.failed)
	}
	if w.reads.n+w.writes.n != 0 || w.done.Load() != 0 {
		t.Errorf("failed ops recorded %d latencies and %d completions", w.reads.n+w.writes.n, w.done.Load())
	}
}

func TestFinishRejectsFailedWindows(t *testing.T) {
	allFailed := window{ops: 100, failed: 100}
	if err := finish(&record{}, allFailed, nil); err == nil {
		t.Error("a window in which every op failed reported a result")
	}
	some := window{ops: 100, failed: 3}
	some.reads.add(1000)
	some.writes.add(2000)
	rec := record{}
	if err := finish(&rec, some, nil); err != nil {
		t.Fatal(err)
	}
	if rec.Result.Correct || rec.Result.Attempted != 100 || rec.Result.Failed != 3 {
		t.Errorf("window with 3 failed of 100 gave %+v, want an incorrect result", rec.Result)
	}
	if some.completed() != 97 {
		t.Errorf("completed = %d, want 97", some.completed())
	}
	ok := window{ops: 100}
	ok.reads.add(1000)
	ok.writes.add(2000)
	if err := finish(&rec, ok, nil); err != nil || !rec.Result.Correct {
		t.Errorf("a clean window is not correct: %v %+v", err, rec.Result)
	}
}

func TestPerOpRatios(t *testing.T) {
	if got := perOp(5000, 100); got != 50 {
		t.Errorf("perOp = %v", got)
	}
	if perOp(5, 0) != 0 || frac(1, 0) != 0 {
		t.Error("a ratio over nothing must be 0")
	}
	if got := stealFrac(cpuTimes{total: 100, steal: 10}, cpuTimes{total: 300, steal: 60}); got != 0.25 {
		t.Errorf("stealFrac = %v, want 0.25", got)
	}
}

func TestResultSchema(t *testing.T) {
	b, err := json.Marshal(result{Correct: true, Attempted: 3, Failed: 0,
		Metrics: map[string]metric{"read_p50_us": {1.5, "us"}}})
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if m := ms["read_p50_us"]; len(m) != 2 || m["value"] != 1.5 || m["unit"] != "us" {
		t.Errorf("metric encodes as %v, want value and unit only", m)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	emitted := map[string]string{}
	for _, e := range endToEnd {
		emitted[e.name] = e.unit
	}
	if d := declared(bf.EndToEnd); !reflect.DeepEqual(d, emitted) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program emits %v", d, emitted)
	}
	layer := map[string]string{}
	for k, v := range perLayerZero() {
		layer[k] = v.Unit
	}
	if d := declared(bf.PerLayer); !reflect.DeepEqual(d, layer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program emits %v", d, layer)
	}
	for _, w := range bf.Workloads {
		if _, err := lookupSpec(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	higher, err := loadDirections(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(higher) != len(bf.EndToEnd)+len(bf.PerLayer) || !higher["ops_per_s"] || higher["read_p50_us"] {
		t.Errorf("directions read from BENCHMARK.json: %v", higher)
	}
}

func TestCompareMediansAndPairs(t *testing.T) {
	mk := func(seed uint64, v float64) record {
		return record{Workload: "point-rw", Seed: seed, Result: result{
			Metrics: map[string]metric{"read_p50_us": {v, "us"}}}}
	}
	a := []record{mk(1, 10), mk(2, 12), mk(3, 11), mk(4, 13)}
	b := []record{mk(1, 9), mk(2, 12), mk(3, 10), mk(5, 1)}
	rows := compareRecords(a, b, map[string]bool{"read_p50_us": false})
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	// Seeds 1-3 pair; B wins 1 and 3, ties on 2; seed 5 has no partner.
	if r.pairs != 3 || r.won != 2 || !r.declared {
		t.Errorf("B won %d of %d pairs, want 2 of 3", r.won, r.pairs)
	}
	if r.a[1] != 11.5 || r.nb != 4 {
		t.Errorf("A median %v (want 11.5), B n %d (want 4)", r.a[1], r.nb)
	}
	if r := compareRecords(a, b, map[string]bool{"read_p50_us": true})[0]; r.won != 0 {
		t.Errorf("with higher better, B won %d pairs it lost", r.won)
	}
	if r := compareRecords(a, b, nil)[0]; r.declared || r.won != 0 {
		t.Error("an undeclared metric was scored")
	}
	if strings.TrimSpace(recordPrefix) != "perfbench-record" {
		t.Error("record prefix changed: saved results would no longer load")
	}
}

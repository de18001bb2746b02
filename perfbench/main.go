// Command perfbench is the repository's benchmark. Each run sets up one
// workload from its seed, measures it for a fixed time, verifies every
// read against the workers' shadows, and prints one JSON result as its
// last line:
//
//	perfbench --workload point-rw --seed 1 --seconds 10 --trace 0
//	perfbench compare <results-A> <results-B>
//
// --trace 0 measures the end-to-end metrics with nothing traced;
// --trace 1 instead replays the workload's op stream through each layer
// with a span around every call and prints the per-layer ledger.
// Before the result line every run prints a "perfbench-record" line:
// the same result plus host noise (steal, calibration loop), a host and
// source fingerprint, and the figures recorded but not gated. compare
// reads saved outputs holding those lines. run.sh builds sudoku-cached
// and this program from source into one directory and runs it from the
// repository root; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "stub" {
		if err := stubMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench stub:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, printed before the result.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Host     fingerprint       `json:"host"`
	Noise    map[string]metric `json:"noise"`
	Recorded map[string]metric `json:"recorded"`
	// SetupRuns holds each set-up's CPU seconds (setup_s is their
	// median) and SetupWall its wall seconds, which track host steal.
	SetupRuns []float64 `json:"setup_runs_s,omitempty"`
	SetupWall []float64 `json:"setup_wall_s,omitempty"`
	// Slices holds per-slice figures of the measured window.
	Slices      map[string][]float64 `json:"slices,omitempty"`
	SDC         int64                `json:"sdc"`
	FirstSDC    string               `json:"first_sdc,omitempty"`
	Result      result               `json:"result"`
	CompletedAt string               `json:"completed_at"`
}

const recordPrefix = "perfbench-record "

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	// daemon is the sudoku-cached binary the wire workloads launch.
	daemon string
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: point-rw, batch-rw or engine-paper-ber")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: op streams, data and injected faults derive from it")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := lookupSpec(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("invalid --seconds %d / --trace %d", o.seconds, o.trace)
	}
	// run.sh builds sudoku-cached beside this program.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	o.daemon = filepath.Join(filepath.Dir(self), "sudoku-cached")
	rec := record{
		Workload: s.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host:     hostFingerprint("."),
		Noise:    map[string]metric{},
		Recorded: map[string]metric{},
	}
	if o.trace == 0 {
		err = measure(s, o, &rec)
	} else {
		err = traceRun(s, o, &rec, out)
	}
	if err != nil {
		return err
	}
	rec.CompletedAt = time.Now().UTC().Format(time.RFC3339)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n", recordPrefix, line)
	last, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", last)
	if !rec.Result.Correct {
		return fmt.Errorf("incorrect run: %d SDC, %d of %d ops failed %s",
			rec.SDC, rec.Result.Failed, rec.Result.Attempted, rec.FirstSDC)
	}
	return nil
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"server_cpu_us_per_op", "us"},
	{"client_cpu_us_per_op", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median set-up CPU time, and the last set-up is the one measured.
const setupReps = 3

// measure is the untraced run: set up setupReps times, then measure the
// closed loop at the workload's concurrency for o.seconds.
func measure(s spec, o options, rec *record) error {
	var walls, cpus []float64
	var t *target
	for i := 0; i < setupReps; i++ {
		if t != nil {
			t.close()
		}
		var cost setupCost
		var err error
		t, cost, err = setup(s, o.seed, o.daemon)
		if err != nil {
			return err
		}
		walls, cpus = append(walls, cost.wall), append(cpus, cost.cpu)
	}
	defer t.close()
	rec.SetupRuns, rec.SetupWall = cpus, walls

	cal0 := calibrate()
	win, err := measureWindow(t.workers, time.Duration(o.seconds)*time.Second, t.hostPID())
	if err != nil {
		return err
	}
	cal1 := calibrate()
	if err := t.alive(); err != nil {
		return err
	}
	rss, err := peakRSSMB(t.hostPID())
	if err != nil {
		return err
	}

	done := win.completed()
	values := map[string]float64{
		"read_p50_us":          usPerCall(&win.reads, 0.5, s.group),
		"write_p50_us":         usPerCall(&win.writes, 0.5, s.group),
		"server_cpu_us_per_op": perOp(win.server*1e6, done),
		"client_cpu_us_per_op": perOp(win.client*1e6, done),
		"cpu_us_per_op":        perOp(win.cpu*1e6, done),
		"rss_mb":               rss,
		"setup_s":              median(append([]float64(nil), cpus...)),
	}
	m := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		m[e.name] = metric{values[e.name], e.unit}
	}

	noteHost(rec, win, cal0, cal1)
	recordWindow(rec, win, s.group)
	return finish(rec, win, m)
}

// usPerCall returns the p-quantile of a window's timed calls in µs per
// single request: engine calls are timed in groups of group.
func usPerCall(h *latHist, p float64, group int) float64 {
	return h.quantile(p) / 1e3 / float64(group)
}

// recordWindow adds the window's ungated figures to the record.
func recordWindow(rec *record, win window, group int) {
	rec.Recorded["ops_per_s"] = metric{frac(float64(win.completed()), win.elapsed), "1/s"}
	rec.Recorded["read_p99_us"] = metric{usPerCall(&win.reads, 0.99, group), "us"}
	rec.Recorded["write_p99_us"] = metric{usPerCall(&win.writes, 0.99, group), "us"}
	rec.Recorded["read_samples"] = metric{float64(win.reads.n), "count"}
	rec.Recorded["write_samples"] = metric{float64(win.writes.n), "count"}
	rec.Recorded["failed_frac"] = metric{frac(float64(win.failed), float64(win.ops)), "frac"}
	sl := make(map[string][]float64)
	for _, x := range win.slices {
		sl["server_cpu_us_per_op"] = append(sl["server_cpu_us_per_op"], perOp(x.server*1e6, x.ops))
		sl["client_cpu_us_per_op"] = append(sl["client_cpu_us_per_op"], perOp(x.client*1e6, x.ops))
		sl["ops"] = append(sl["ops"], float64(x.ops))
		sl["steal_frac"] = append(sl["steal_frac"], x.steal)
	}
	rec.Slices = sl
}

// maxFailedFrac is the share of attempted requests that may fail in a
// correct run: none, as in set-up. Every workload is built so that no
// request fails; one that does means the program now serves something
// else, and its latency and CPU per op no longer compare.
const maxFailedFrac = 0

// correct reports whether a run with these outcomes is correct: zero
// SDC and no more failures than maxFailedFrac allows.
func correct(sdc, failed, attempted int64) bool {
	return sdc == 0 && frac(float64(failed), float64(attempted)) <= maxFailedFrac
}

// finish fills the result from a window. A window that completed no
// read or no write has nothing to measure and fails the run; one with
// SDC or failed requests reports an incorrect result.
func finish(rec *record, win window, m map[string]metric) error {
	if win.completed() == 0 || win.reads.n == 0 || win.writes.n == 0 {
		return fmt.Errorf("run completed %d of %d requests (%d reads, %d writes succeeded): nothing to measure",
			win.completed(), win.ops, win.reads.n, win.writes.n)
	}
	rec.SDC, rec.FirstSDC = win.sdc, win.firstSDC
	rec.Result = result{
		Correct:   correct(win.sdc, win.failed, win.ops),
		Attempted: win.ops,
		Failed:    win.failed,
		Metrics:   m,
	}
	return nil
}

// traceRun is implemented in ledger.go.

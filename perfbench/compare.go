package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain reads two sets of saved run outputs and prints, per
// workload and metric, each side's median and quartiles, the change of
// the median, and the share of pairs B won. Runs pair by (workload,
// trace, seed), so run both sides on the same seeds, alternating which
// side goes first; ties count for neither side. Which way a metric
// wins is its "better" field in the BENCHMARK.json of the working
// directory, the repository root; a metric the file does not declare
// shows no wins.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare <results-A> <results-B> (files or directories of saved run output), from the repository root")
	}
	higher, err := loadDirections("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	b, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	rows := compareRecords(a, b, higher)
	if len(rows) == 0 {
		return errors.New("no workload and metric appears on both sides")
	}
	fmt.Fprintf(out, "%-18s %-32s %-36s %-36s %8s %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "B wins")
	for _, r := range rows {
		wins := "-"
		if r.declared {
			wins = fmt.Sprintf("%d/%d", r.won, r.pairs)
		}
		fmt.Fprintf(out, "%-18s %-32s %-36s %-36s %+7.1f%% %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", r.a[1], r.a[0], r.a[2], r.na),
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", r.b[1], r.b[0], r.b[2], r.nb),
			100*frac(r.b[1]-r.a[1], r.a[1]), wins)
	}
	return nil
}

// loadDirections reads every metric BENCHMARK.json declares and reports,
// per name, whether a higher value is better.
func loadDirections(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	higher := make(map[string]bool)
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		switch m.Better {
		case "higher", "lower":
			higher[m.Name] = m.Better == "higher"
		default:
			return nil, fmt.Errorf("%s: metric %s: better is %q, want higher or lower", path, m.Name, m.Better)
		}
	}
	return higher, nil
}

// loadRecords reads every perfbench-record line from path, a file or a
// directory of files.
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var recs []record
	for _, f := range files {
		rs, err := readRecords(f)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rs...)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no %q lines", path, strings.TrimSpace(recordPrefix))
	}
	return recs, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// values flattens a record's gated, recorded and noise figures.
func (r record) values() map[string]float64 {
	out := make(map[string]float64)
	for _, src := range []map[string]metric{r.Noise, r.Recorded, r.Result.Metrics} {
		for k, v := range src {
			out[k] = v.Value
		}
	}
	return out
}

type compareRow struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	na, nb           int
	// declared is whether higher names the metric; won counts only then.
	declared   bool
	won, pairs int
}

// compareRecords pairs a and b by seed per workload and metric; higher
// gives each declared metric's direction (see loadDirections).
func compareRecords(a, b []record, higher map[string]bool) []compareRow {
	type key struct {
		workload string
		trace    int
	}
	group := func(rs []record) map[key]map[uint64]map[string]float64 {
		g := make(map[key]map[uint64]map[string]float64)
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			if g[k] == nil {
				g[k] = make(map[uint64]map[string]float64)
			}
			g[k][r.Seed] = r.values()
		}
		return g
	}
	ga, gb := group(a), group(b)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	var rows []compareRow
	for _, k := range keys {
		names := map[string]bool{}
		for _, vs := range ga[k] {
			for n := range vs {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			var av, bv []float64
			up, declared := higher[name]
			row := compareRow{workload: k.workload, metric: name, declared: declared}
			for seed, vs := range ga[k] {
				x, ok := vs[name]
				if !ok {
					continue
				}
				av = append(av, x)
				if y, ok := gb[k][seed][name]; ok {
					row.pairs++
					if declared && (up && y > x || !up && y < x) {
						row.won++
					}
				}
			}
			for _, vs := range gb[k] {
				if y, ok := vs[name]; ok {
					bv = append(bv, y)
				}
			}
			if len(bv) == 0 {
				continue
			}
			row.na, row.nb = len(av), len(bv)
			row.a[0], row.a[1], row.a[2] = quartiles(av)
			row.b[0], row.b[1], row.b[2] = quartiles(bv)
			rows = append(rows, row)
		}
	}
	return rows
}

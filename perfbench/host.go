package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns this process's user+sys CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// procDir is /proc/<pid>, or /proc/self for pid 0.
func procDir(pid int) string {
	if pid == 0 {
		return "/proc/self"
	}
	return "/proc/" + strconv.Itoa(pid)
}

// procFields reads "key: value ..." lines from a /proc file and returns
// the first number of each wanted key.
func procFields(path string, keys ...string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64, len(keys))
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for _, want := range keys {
			if k == want {
				if fs := strings.Fields(v); len(fs) > 0 {
					if x, err := strconv.ParseFloat(fs[0], 64); err == nil {
						out[k] = x
					}
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("%s: no %s", path, k)
		}
	}
	return out, nil
}

// procCounters is one reading of the per-process kernel counters the
// benchmark turns into per-op ratios.
type procCounters struct {
	syscalls float64 // read+write syscalls
	ctxsw    float64 // voluntary+involuntary context switches
}

func readProcCounters(pid int) (procCounters, error) {
	io, err := procFields(procDir(pid)+"/io", "syscr", "syscw")
	if err != nil {
		return procCounters{}, err
	}
	st, err := procFields(procDir(pid)+"/status", "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
	if err != nil {
		return procCounters{}, err
	}
	return procCounters{
		syscalls: io["syscr"] + io["syscw"],
		ctxsw:    st["voluntary_ctxt_switches"] + st["nonvoluntary_ctxt_switches"],
	}, nil
}

func (a procCounters) sub(b procCounters) procCounters {
	return procCounters{syscalls: a.syscalls - b.syscalls, ctxsw: a.ctxsw - b.ctxsw}
}

// schedCPU reads the on-CPU seconds from a schedstat file (the
// scheduler's nanosecond run-time account).
func schedCPU(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, fmt.Errorf("empty %s", path)
	}
	ns, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0, fmt.Errorf("malformed %s: %w", path, err)
	}
	return ns / 1e9, nil
}

// threadCPUOf returns one thread of this process's on-CPU seconds.
func threadCPUOf(tid int) (float64, error) {
	return schedCPU(fmt.Sprintf("/proc/self/task/%d/schedstat", tid))
}

// taskCPU returns a process's on-CPU seconds summed over its live
// threads, at nanosecond resolution (/proc/<pid>/stat counts 10 ms
// ticks, too coarse for half-second slices).
func taskCPU(pid int) (float64, error) {
	dir := procDir(pid) + "/task"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, e := range ents {
		c, err := schedCPU(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		sum += c
	}
	return sum, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	st, err := procFields(procDir(pid)+"/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	return st["VmHWM"] / 1024, nil
}

// cpuTimes is the aggregate line of /proc/stat in clock ticks.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTimes{}, err
	}
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("malformed /proc/stat: %q", line)
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already inside user, so stop at steal.
	for i := 1; i <= 8; i++ {
		x, err := strconv.ParseFloat(fs[i], 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("malformed /proc/stat field %d", i)
		}
		t.total += x
		if i == 8 {
			t.steal = x
		}
	}
	return t, nil
}

// stealFrac is the share of all CPU time the hypervisor stole between
// two readings.
func stealFrac(a, b cpuTimes) float64 { return frac(b.steal-a.steal, b.total-a.total) }

// calibration is one run of a fixed SHA-256 loop on a locked thread.
type calibration struct {
	// wallOverCPU is 1 on an idle host and above 1 when the hypervisor
	// or neighbours take the CPU away; cpuMs is the thread CPU the fixed
	// work took, which grows when a busy host slows every instruction.
	wallOverCPU, cpuMs float64
}

func calibrate() calibration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	tid := syscall.Gettid()
	c0, _ := threadCPUOf(tid)
	t0 := time.Now()
	sum := sha256.Sum256(buf)
	for i := 0; i < 300; i++ {
		copy(buf, sum[:])
		sum = sha256.Sum256(buf)
	}
	wall := time.Since(t0).Seconds()
	c1, _ := threadCPUOf(tid)
	cpu := c1 - c0
	return calibration{wallOverCPU: frac(wall, cpu), cpuMs: cpu * 1e3}
}

// noteHost records the host noise around a window: the steal fraction
// during it and the mean of the calibrations before and after.
func noteHost(rec *record, win window, before, after calibration) {
	rec.Noise["host.steal_frac"] = metric{win.steal, "frac"}
	rec.Noise["host.calib_wall_over_cpu"] = metric{(before.wallOverCPU + after.wallOverCPU) / 2, "ratio"}
	rec.Noise["host.calib_cpu_ms"] = metric{(before.cpuMs + after.cpuMs) / 2, "ms"}
}

// clockCostNs is the median cost of one time.Now/time.Since pair, the
// overhead every timed sample carries.
func clockCostNs() float64 {
	const n = 2001
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(xs)
}

// fingerprint identifies the host and build a result came from.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Source is the git commit when the checkout is a repository, else
	// a SHA-256 over the module's Go sources and go.mod files.
	Source string `json:"source"`
}

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Source:     sourceID(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID names the code under test: git's HEAD commit when present,
// otherwise a digest of every .go and go.mod file under root, skipping
// hidden directories (build output lives in one).
func sourceID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return "git:" + strings.TrimSpace(string(b))
			}
		} else {
			return "git:" + ref
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

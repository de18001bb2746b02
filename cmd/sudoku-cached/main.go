// Command sudoku-cached serves a shared SuDoku engine to network
// tenants over cleartext HTTP/2: the frame protocol at /v1/op, the
// per-tenant RAS-event tap at /v1/events, Prometheus metrics at
// /metrics (engine families plus the sudoku_server_* service
// families), the health JSON at /healthz, the request-tracing flight
// recorder at /debug/flightrec, the expvar tree at /debug/vars, and
// the standard pprof handlers under /debug/pprof/. Tenants get
// isolated base+limit namespaces, token-bucket rate limits, min-delay
// session discipline on batch syncs, and batch-size-scaled timeouts;
// the admission controller sheds load by priority as the engine's
// storm ladder escalates.
//
// Usage:
//
//	sudoku-cached [-addr :9191] [-cachemb 4] [-shards 0] [-seed 1]
//	              [-scrub 20ms] [-storm 0] [-campaign name|file.json]
//	              [-campintervals 64] [-camponce] [-maxinflight 256]
//	              [-headroom 0.2] [-tenants alpha:8192,beta:8192:high]
//	              [-mindelay 0] [-rate 0] [-burst 0] [-selfcheck]
//	              [-checkpoint-dir dir] [-checkpoint 0] [-restore]
//
// A tenant spec is name:lines[:low|high]; windows are packed in spec
// order and must fit the engine. -campaign steps a compiled
// correlated-fault plan (hotspot, burst, ...) one interval per scrub
// period, wrapping around for as long as the daemon runs (-camponce
// retires it after one pass); plain -storm scatters uniform faults via
// the scrub daemon instead. The daemon starts no load of its own:
// sudoku-stress -server drives it.
//
// -selfcheck binds an ephemeral port and gates the whole surface end
// to end, then exits: both codecs through the client, health, degraded
// mode, two strict /metrics scrapes (every *_total monotone, reads,
// writes and injected faults strictly advancing), and a deterministic
// deep-repair probe whose traces must reach /debug/flightrec in ladder
// order, at least one past ECC-1, while the alpha event tap delivers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sudoku"
	"sudoku/internal/faultmodel"
	"sudoku/internal/reqtrace"
	"sudoku/internal/server"
	"sudoku/internal/server/lifecycle"
	"sudoku/internal/server/tenant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sudoku-cached:", err)
		os.Exit(1)
	}
}

type options struct {
	addr          string
	cachemb       int
	shards        int
	seed          uint64
	scrub         time.Duration
	storm         int
	campaign      string
	campintervals int
	camponce      bool
	maxInflight   int
	headroom      float64
	tenants       string
	minDelay      time.Duration
	rate          float64
	burst         float64
	selfcheck     bool
	ckptDir       string
	ckptEvery     time.Duration
	restore       bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sudoku-cached", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", ":9191", "HTTP/2 (h2c) listen address")
	fs.IntVar(&o.cachemb, "cachemb", 4, "cache size in MB")
	fs.IntVar(&o.shards, "shards", 0, "shard count (0 = auto)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.DurationVar(&o.scrub, "scrub", 20*time.Millisecond, "scrub interval")
	fs.IntVar(&o.storm, "storm", 0, "uniform faults per scrub pass, or campaign base budget")
	fs.StringVar(&o.campaign, "campaign", "", "correlated-fault campaign: preset name or JSON file")
	fs.IntVar(&o.campintervals, "campintervals", 64, "intervals a preset campaign is sized to before wrapping")
	fs.BoolVar(&o.camponce, "camponce", false, "run the campaign plan once instead of wrapping, so the storm ladder can recover")
	fs.IntVar(&o.maxInflight, "maxinflight", 256, "max concurrent admitted requests")
	fs.Float64Var(&o.headroom, "headroom", 0.2, "inflight fraction reserved for scrub/audit traffic")
	fs.StringVar(&o.tenants, "tenants", "alpha:8192,beta:8192:high", "tenant specs name:lines[:low|high]")
	fs.DurationVar(&o.minDelay, "mindelay", 0, "min delay between a tenant's consecutive batch syncs")
	fs.Float64Var(&o.rate, "rate", 0, "per-tenant token-bucket ops/sec (0 = unlimited)")
	fs.Float64Var(&o.burst, "burst", 0, "per-tenant bucket burst (0 = one second of rate)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "end-to-end smoke on an ephemeral port, then exit")
	fs.StringVar(&o.ckptDir, "checkpoint-dir", "", "snapshot directory for crash-consistent RAS checkpoints (empty = off)")
	fs.DurationVar(&o.ckptEvery, "checkpoint", 0, "checkpoint interval (0 = default when -checkpoint-dir is set)")
	fs.BoolVar(&o.restore, "restore", false, "warm-restart from -checkpoint-dir before serving (cold start if no snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.restore && o.ckptDir == "" {
		return errors.New("-restore requires -checkpoint-dir")
	}
	if o.cachemb <= 0 || o.scrub <= 0 || o.storm < 0 || o.maxInflight <= 0 {
		return fmt.Errorf("invalid sizing flags (cachemb %d, scrub %v, storm %d, maxinflight %d)",
			o.cachemb, o.scrub, o.storm, o.maxInflight)
	}
	if o.headroom < 0 || o.headroom >= 1 {
		return fmt.Errorf("headroom %g outside [0, 1)", o.headroom)
	}

	eng, err := sudoku.NewConcurrent(buildConfig(o))
	if err != nil {
		return err
	}
	cfgs, err := parseTenants(o)
	if err != nil {
		return err
	}
	reg, err := tenant.NewRegistry(uint64(eng.Geometry().Lines), cfgs)
	if err != nil {
		return err
	}

	if o.restore {
		// Before any daemon starts: the scrub/storm starts below then
		// pick up the persisted cursor and ladder level.
		switch err := eng.RestoreFromDir(o.ckptDir); {
		case err == nil:
			h := eng.Health()
			fmt.Fprintf(out, "restored snapshot generation %d (%d lines re-retired)\n",
				h.SnapshotGeneration, h.RestoredLines)
		case sudoku.IsSnapshotNotExist(err):
			fmt.Fprintf(out, "no snapshot in %s, cold start\n", o.ckptDir)
		default:
			return fmt.Errorf("restore: %w", err)
		}
	}

	// Storm control first so the scrub daemon's interval policy sees
	// the ladder; then the daemon, with uniform storm injection only
	// when no campaign supplies the faults.
	if err := eng.StartStormControl(sudoku.StormConfig{MinInterval: o.scrub / 4}); err != nil {
		return err
	}
	scrubCfg := sudoku.ScrubDaemonConfig{Interval: o.scrub, Watchdog: 10 * o.scrub}
	if o.campaign == "" && o.storm > 0 {
		scrubCfg.StormPerPass = perShard(o.storm, eng.Shards())
	}
	if err := eng.StartScrub(scrubCfg); err != nil {
		return err
	}
	if o.ckptDir != "" {
		if err := eng.StartCheckpoints(sudoku.CheckpointConfig{
			Dir:      o.ckptDir,
			Interval: o.ckptEvery,
			Watchdog: 10 * o.scrub,
		}); err != nil {
			return err
		}
	}

	var stopCampaign func()
	if o.campaign != "" {
		cam, err := faultmodel.Load(o.campaign, o.campintervals, o.storm)
		if err != nil {
			return err
		}
		plan, err := sudoku.CompileCampaign(cam, eng.Geometry(), o.seed)
		if err != nil {
			return err
		}
		stopCampaign = faultmodel.Step(plan, o.scrub, o.camponce,
			func(ip sudoku.FaultIntervalPlan) { _, _ = eng.ApplyFaults(ip) })
		fmt.Fprintf(out, "campaign %s: %d intervals, stepping every %v (once=%v)\n",
			o.campaign, plan.Intervals(), o.scrub, o.camponce)
	}

	srv, err := server.New(server.Options{
		Engine:      eng,
		Tenants:     reg,
		MaxInflight: o.maxInflight,
		Headroom:    o.headroom,
	})
	if err != nil {
		return err
	}
	metrics := eng.NewRegistry()
	srv.Register(metrics)
	publishExpvar(metrics)
	mux := newMux(srv, metrics, eng)
	stopSig := watchDegradeSignal(srv, out)
	defer stopSig()
	for _, t := range reg.Tenants() {
		fmt.Fprintf(out, "tenant %s: lines [%d, %d) priority %v\n",
			t.Name(), t.BaseLine(), t.BaseLine()+t.Lines(), t.Priority())
	}

	drains := lifecycle.EngineDrain(eng, notRunning)
	// Checkpoint drain last: the final cut captures the post-drain
	// state (completed scrub pass, settled storm ladder).
	drains = append(drains, lifecycle.CheckpointDrain(eng, notRunning)...)
	if stopCampaign != nil {
		drains = append([]lifecycle.Step{{
			Name: "campaign-stop",
			Run:  func(context.Context) error { stopCampaign(); return nil },
		}}, drains...)
	}

	if o.selfcheck {
		return selfcheck(mux, eng, drains, out)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	return lifecycle.Run(context.Background(), lifecycle.Config{
		Server:   newH2CServer(mux),
		Listener: ln,
		Drain:    drains,
		Out:      out,
	})
}

// newMux wires the whole serving surface: the tenant API, metrics,
// health, the operator brownout switch, the flight recorder, expvar,
// and pprof.
func newMux(srv *server.Server, metrics *sudoku.Registry, eng *sudoku.Concurrent) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	mux.Handle("/metrics", metrics)
	mux.Handle("/healthz", healthz(eng.Health, srv.Degraded))
	mux.Handle("/admin/degrade", degradeHandler(srv))
	mux.Handle("/debug/flightrec", reqtrace.Handler(eng.Tracer()))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// currentRegistry backs the process-wide expvar binding: expvar.Publish
// panics on duplicate names, so the name is claimed once and the
// published Func indirects through this pointer to whichever registry
// the most recent run built (tests call run repeatedly in-process).
var (
	currentRegistry atomic.Pointer[sudoku.Registry]
	publishOnce     sync.Once
)

func publishExpvar(reg *sudoku.Registry) {
	currentRegistry.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("sudoku", expvar.Func(func() any {
			r := currentRegistry.Load()
			if r == nil {
				return nil
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(r.String()), &m); err != nil {
				return map[string]string{"error": err.Error()}
			}
			return m
		}))
	})
}

// newH2CServer builds an http.Server accepting both HTTP/1.1 and
// cleartext HTTP/2 (prior knowledge), matching the client transport.
func newH2CServer(h http.Handler) *http.Server {
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	return &http.Server{Handler: h, Protocols: &protos}
}

func notRunning(err error) bool {
	return errors.Is(err, sudoku.ErrScrubNotRunning) ||
		errors.Is(err, sudoku.ErrStormNotRunning) ||
		errors.Is(err, sudoku.ErrCheckpointNotRunning) ||
		errors.Is(err, sudoku.ErrNoCheckpointDir)
}

// buildConfig mirrors the other daemons: shrink parity groups until
// the skewed hashes have Lines ≥ GroupSize² to work with.
func buildConfig(o options) sudoku.Config {
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = o.cachemb
	cfg.Shards = o.shards
	cfg.Seed = o.seed
	lines := o.cachemb << 20 / 64
	for lines < cfg.GroupSize*cfg.GroupSize {
		cfg.GroupSize /= 2
	}
	return cfg
}

// parseTenants expands the -tenants flag plus the shared discipline
// flags into tenant configs.
func parseTenants(o options) ([]tenant.Config, error) {
	var cfgs []tenant.Config
	for _, spec := range strings.Split(o.tenants, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("tenant spec %q: want name:lines[:low|high]", spec)
		}
		lines, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil || lines == 0 {
			return nil, fmt.Errorf("tenant spec %q: bad line count", spec)
		}
		pri := tenant.Low
		if len(parts) == 3 {
			switch parts[2] {
			case "low":
			case "high":
				pri = tenant.High
			default:
				return nil, fmt.Errorf("tenant spec %q: priority must be low or high", spec)
			}
		}
		cfgs = append(cfgs, tenant.Config{
			Name: parts[0], Lines: lines, Priority: pri,
			RateOps: o.rate, Burst: o.burst, MinDelay: o.minDelay,
		})
	}
	if len(cfgs) == 0 {
		return nil, errors.New("no tenants configured")
	}
	return cfgs, nil
}

// perShard scales a per-interval fault budget to a per-shard-pass one.
func perShard(perInterval, shards int) int {
	per := perInterval / shards
	if per < 1 {
		per = 1
	}
	return per
}

// healthz serves the engine Health JSON, 503 while the scrub watchdog
// flags a stalled pass or the checkpoint daemon has gone stale; the
// body names which (scrub_stalled against scrub_watchdog_ns,
// checkpoint_stale). The trace fields are informational only:
// flight-recorder drops mean sampler contention, never unhealthy, and
// last_anomaly_age_ns is -1 when nothing anomalous was ever recorded.
// Degraded mode is likewise NOT a 503: a degraded server is still
// serving reads by design — orchestrators must not kill a replica for
// shedding writes. Health fields /metrics already carries (uptime,
// scrub-pass and checkpoint ages, spares, quarantine) stay there.
func healthz(health func() sudoku.Health, degraded func() (bool, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h := health()
		deg, reason := degraded()
		w.Header().Set("Content-Type", "application/json")
		if h.ScrubStalled || h.CheckpointStale {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, `{"storm":%q,"degraded":%v,"degraded_reason":%q,"scrub_running":%v,"retired_lines":%d,"events_dropped":%d,"snapshot_generation":%d,"checkpoint_writes":%d,"traces_published":%d,"trace_drops":%d,"last_anomaly_age_ns":%d,"scrub_stalled":%v,"scrub_watchdog_ns":%d,"checkpoint_stale":%v,"restored_lines":%d}`+"\n",
			h.Storm.State.String(), deg, reason, h.ScrubRunning, h.RetiredLines, h.EventsDropped,
			h.SnapshotGeneration, h.CheckpointWrites,
			h.TracesPublished, h.TraceDrops, int64(h.LastAnomalyAge),
			h.ScrubStalled, int64(h.ScrubWatchdog), h.CheckpointStale, h.RestoredLines)
	}
}

// degradeHandler is the operator's brownout switch: POST ?on=true|false
// flips the operator source; GET (or any POST) reports the verdict.
func degradeHandler(srv *server.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			switch on := r.URL.Query().Get("on"); on {
			case "true", "1":
				srv.SetDegraded(true)
			case "false", "0":
				srv.SetDegraded(false)
			default:
				http.Error(w, "want ?on=true|false", http.StatusBadRequest)
				return
			}
		}
		deg, reason := srv.Degraded()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"degraded":%v,"reason":%q}`+"\n", deg, reason)
	}
}

// watchDegradeSignal toggles operator degraded mode on SIGUSR1 — the
// no-HTTP path for draining writes from a box under incident response.
func watchDegradeSignal(srv *server.Server, out io.Writer) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGUSR1)
	done := make(chan struct{})
	var on atomic.Bool
	go func() {
		for {
			select {
			case <-ch:
				now := !on.Load()
				on.Store(now)
				srv.SetDegraded(now)
				fmt.Fprintf(out, "SIGUSR1: operator degraded mode %v\n", now)
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

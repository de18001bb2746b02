// Package lifecycle is the graceful-shutdown spine of the sudoku-cached
// daemon. It owns the signal-to-drain sequence so the serving path
// quiesces in a fixed order:
//
//  1. SIGINT/SIGTERM (or external context cancel) stops accepting new
//     connections and lets in-flight HTTP requests finish, bounded by
//     the shutdown grace period.
//  2. Drain steps then run in registration order — scrub-daemon drain
//     (finish the in-flight scrub pass so no region is left mid
//     rewrite), storm-controller stop, engine teardown — each bounded
//     by the same deadline and reported individually.
//
// HTTP first, engine second: requests still draining may touch the
// engine, so the engine's own machinery must outlive them.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DefaultGrace bounds the whole shutdown sequence (HTTP quiesce plus
// all drain steps) when Config.Grace is zero.
const DefaultGrace = 5 * time.Second

// Step is one named drain action run after the HTTP server quiesces.
// The context carries the remaining grace budget.
type Step struct {
	Name string
	Run  func(ctx context.Context) error
}

// Config describes one daemon's serve-and-drain lifecycle.
type Config struct {
	// Server is the configured http.Server (handler, protocols,
	// timeouts). Required. Its BaseContext is left untouched.
	Server *http.Server
	// Listener is the bound listener to serve on. Required — binding
	// is the caller's job so address errors surface before any
	// goroutine starts.
	Listener net.Listener
	// Grace bounds shutdown; DefaultGrace when zero.
	Grace time.Duration
	// Drain steps run in order after HTTP quiesce.
	Drain []Step
	// Out receives one-line progress notes (banner, drain reports).
	// Discarded when nil.
	Out io.Writer
	// NoSignals disables SIGINT/SIGTERM handling; shutdown then
	// happens only via the ctx passed to Run. Tests use this to
	// drive the lifecycle deterministically.
	NoSignals bool
}

// Run serves until ctx is canceled or a termination signal arrives,
// then executes the drain sequence. It returns nil on a clean drain,
// the first serve error if the listener fails, or a joined error when
// any drain step times out or fails.
func Run(ctx context.Context, cfg Config) error {
	if cfg.Server == nil || cfg.Listener == nil {
		return errors.New("lifecycle: Server and Listener are required")
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	grace := cfg.Grace
	if grace <= 0 {
		grace = DefaultGrace
	}
	if !cfg.NoSignals {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- cfg.Server.Serve(cfg.Listener) }()
	fmt.Fprintf(out, "serving on %v\n", cfg.Listener.Addr())

	select {
	case err := <-errCh:
		// Listener died on its own; run the drains anyway so the
		// engine machinery is not abandoned mid-pass.
		if err == nil || errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		dctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		return errors.Join(err, runDrains(dctx, cfg.Drain, out))
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "shutdown: quiescing HTTP (grace %v)\n", grace)
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := cfg.Server.Shutdown(dctx)
	if err != nil {
		// Grace expired with requests still in flight: sever them so
		// the drain steps below still get their shot.
		_ = cfg.Server.Close()
		err = fmt.Errorf("lifecycle: http quiesce: %w", err)
	}
	return errors.Join(err, runDrains(dctx, cfg.Drain, out))
}

func runDrains(ctx context.Context, steps []Step, out io.Writer) error {
	var errs []error
	for _, st := range steps {
		start := time.Now()
		if err := st.Run(ctx); err != nil {
			fmt.Fprintf(out, "drain %s: %v (%v)\n", st.Name, err, time.Since(start).Round(time.Millisecond))
			errs = append(errs, fmt.Errorf("lifecycle: drain %s: %w", st.Name, err))
			continue
		}
		fmt.Fprintf(out, "drain %s: done (%v)\n", st.Name, time.Since(start).Round(time.Millisecond))
	}
	return errors.Join(errs...)
}

// EngineDrainer is the engine machinery EngineDrain quiesces: finish
// the in-flight scrub pass, stop the scrub daemon,
// stop the storm controller. Each step tolerates the corresponding
// machinery never having been started.
type EngineDrainer interface {
	DrainScrubContext(ctx context.Context) error
	StopScrub() error
	StopStormControl() error
}

// EngineDrain returns the drain sequence for eng. notRunning reports
// which sentinel errors mean "that machinery was never started" and
// are therefore clean outcomes (the daemon passes the engine
// package's ErrScrubNotRunning-style sentinels).
func EngineDrain(eng EngineDrainer, notRunning func(error) bool) []Step {
	ignore := func(err error) error {
		if err == nil || (notRunning != nil && notRunning(err)) {
			return nil
		}
		return err
	}
	return []Step{
		{Name: "scrub-drain", Run: func(ctx context.Context) error {
			return ignore(eng.DrainScrubContext(ctx))
		}},
		{Name: "scrub-stop", Run: func(ctx context.Context) error {
			return ignore(eng.StopScrub())
		}},
		{Name: "storm-stop", Run: func(ctx context.Context) error {
			return ignore(eng.StopStormControl())
		}},
	}
}

// Checkpointer is the checkpoint machinery a drain can quiesce: stop
// the paced background daemon, then cut one final snapshot so the next
// start restores the very last pre-shutdown state.
type Checkpointer interface {
	StopCheckpoints() error
	CheckpointNow() (int64, error)
}

// CheckpointDrain returns the checkpoint shutdown steps: daemon stop
// FIRST (so the final explicit cut below is guaranteed to be the
// newest generation on disk), then one last checkpoint. notRunning
// reports the sentinel errors that mean "checkpointing was never
// configured" and are therefore clean outcomes. Append these after
// EngineDrain: the final cut should capture the post-drain state (the
// completed scrub pass, the stopped storm ladder's level).
func CheckpointDrain(ck Checkpointer, notRunning func(error) bool) []Step {
	ignore := func(err error) error {
		if err == nil || (notRunning != nil && notRunning(err)) {
			return nil
		}
		return err
	}
	return []Step{
		{Name: "checkpoint-stop", Run: func(ctx context.Context) error {
			return ignore(ck.StopCheckpoints())
		}},
		{Name: "checkpoint-final", Run: func(ctx context.Context) error {
			_, err := ck.CheckpointNow()
			return ignore(err)
		}},
	}
}

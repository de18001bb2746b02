package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"sudoku/client"
	"sudoku/internal/telemetry"
)

// daemon is a running server child process: sudoku-cached, or this
// program serving the stub peer.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// exited is closed when the process ends; err is its Wait result.
	exited chan struct{}
	err    error
	// tail keeps the daemon's last output lines for error reports.
	mu   sync.Mutex
	tail []string
}

// startDaemon launches sudoku-cached at its defaults on an ephemeral
// loopback port and returns once it reports its address and answers a
// health probe.
func startDaemon(bin string) (*daemon, error) {
	d, err := startServer(bin, "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// startServer launches a server process and returns once it prints
// "serving on <addr>".
func startServer(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// The child dies with this process, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	go d.scan(out, addrCh)
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrCh:
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before serving: %v: %s", bin, d.err, d.output())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address within 30s", bin)
	}
	return d, nil
}

// scan forwards the "serving on <addr>" line and keeps a short tail of
// everything else.
func (d *daemon) scan(r io.Reader, addrCh chan<- string) {
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "serving on "); ok && !sent {
			addrCh <- strings.TrimSpace(a)
			sent = true
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) waitReady(limit time.Duration) error {
	c := client.New(client.Options{Addr: d.addr, HTTPTimeout: time.Second})
	defer c.Close()
	deadline := time.Now().Add(limit)
	for {
		h, err := c.Health(context.Background(), "alpha")
		if err == nil && h.ScrubRunning {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sudoku-cached not ready after %v: %v", limit, err)
		}
		if !d.alive() {
			return fmt.Errorf("sudoku-cached exited during start-up: %v: %s", d.err, d.output())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within 10s, and waits for it either way.
func (d *daemon) stop() {
	if !d.alive() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// scrape fetches the daemon's /metrics and returns its samples.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return telemetry.ParseExposition(resp.Body)
}

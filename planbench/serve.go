package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one looppartd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	reqlog string
	done   chan struct{}
}

// startDaemon execs the looppartd binary with default flags plus extra,
// listening on an ephemeral loopback port, with its request log written
// to a file under dir. It returns once GET /healthz answers 200, with the
// time from exec to that answer.
func startDaemon(bin, dir string, extra ...string) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	portfile := filepath.Join(dir, "port")
	os.Remove(portfile)
	logf, err := os.Create(filepath.Join(dir, "stdout.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	reqlog := filepath.Join(dir, "reqlog.jsonl")
	args := append([]string{"-addr", "127.0.0.1:0", "-portfile", portfile, "-reqlog", reqlog}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start looppartd: %w", err)
	}
	d := &daemon{cmd: cmd, reqlog: reqlog, done: make(chan struct{})}
	go func() { cmd.Wait(); close(d.done) }()
	hc := &http.Client{Timeout: time.Second}
	for deadline := start.Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("looppartd exited during start-up (see %s)", logf.Name())
		default:
		}
		if d.url == "" {
			b, err := os.ReadFile(portfile)
			if err != nil || len(b) == 0 {
				continue
			}
			d.url = "http://" + strings.TrimSpace(string(b))
		}
		resp, err := hc.Get(d.url + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, time.Since(start), nil
		}
	}
	d.stop()
	return nil, 0, errors.New("looppartd did not become healthy within 30s")
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within 15 seconds, and waits until it has. It then deletes the request
// log: a run writes tens of megabytes of it, and writing that back to disk
// under the next run would slow the next run's own log writes.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	os.Remove(d.reqlog)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// ---- /proc readings ----

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuTime returns the user+system CPU time of process pid.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// resetPeakRSS restarts process pid's VmHWM from its current RSS, so
// that the reading at the end of a run covers the timed phase and not the
// set-up before it.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSS returns VmHWM of process pid in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// ---- HTTP clients ----

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, url: base + "/v1/plan"}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// reply is one /v1/plan answer.
type reply struct {
	status int
	cache  string // X-Plancache
	body   []byte
}

// Headers carrying a traced request's id and its client span to the
// in-process server's handler wrapper.
const (
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

func (c *client) plan(body []byte) (reply, error) { return c.planTraced(body, 0, 0) }

// planTraced is plan with the traced request id and client span in
// headers, when req is not 0.
func (c *client) planTraced(body []byte, req, parent int64) (reply, error) {
	hr, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req != 0 {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		hr.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Plancache"), body: b}, err
}

// ---- the closed loop ----

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	lats      []time.Duration // of successful ops that ended in the window
	attempted int
	failed    []string // why each failed op failed
	elapsed   time.Duration
}

// closedLoop runs workers callers, each issuing op(worker, i) for the
// next sequence index i as soon as its previous op returned, until dur
// has passed or n ops were issued (n <= 0: no limit). op returns "" on
// success or why the op failed. The window is the dur after the start,
// or until the last op ended if sooner; an op still running when it
// closes is waited for and checked, but its latency is not recorded.
func closedLoop(workers int, dur time.Duration, n int, op func(w, i int) string) loopResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res loopResult
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lats []time.Duration
			var failed []string
			late := 0
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					break
				}
				t0 := time.Now()
				why := op(w, i)
				if why == "" && ctx.Err() == nil {
					lats = append(lats, time.Since(t0))
				} else if why == "" {
					late++
				} else {
					failed = append(failed, why)
				}
			}
			mu.Lock()
			res.lats = append(res.lats, lats...)
			res.failed = append(res.failed, failed...)
			res.attempted += len(lats) + len(failed) + late
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.elapsed = min(time.Since(start), dur)
	return res
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// cleanups holds what must not outlive the harness: temp dirs and the
// child daemon. run executes them once, last registered first, on
// normal exit, on SIGINT/SIGTERM, and on panic (main defers it).
type cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleanups) add(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fns = append(c.fns, fn)
}

func (c *cleanups) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// onSignal runs the cleanups and exits when the harness is interrupted,
// hung up on, or loses the pipe it prints to.
func (c *cleanups) onSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-ch
		c.run()
		os.Exit(130)
	}()
}

// moduleDirs locates the benchmark's own module directory (where go
// run -C bench leaves the process) and the repository root it replaces
// `repro` with.
func moduleDirs() (benchDir, repoDir string, err error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}", "repro/bench", "repro").Output()
	if err != nil {
		return "", "", fmt.Errorf("bench: go list -m (run from the bench/ module, e.g. go run -C bench .): %w", err)
	}
	dirs := strings.Fields(string(out))
	if len(dirs) != 2 {
		return "", "", fmt.Errorf("bench: unexpected go list output %q", out)
	}
	return dirs[0], dirs[1], nil
}

// buildDaemon compiles the real cmd/commservd into binDir. Not timed:
// the benchmark measures the program, not the toolchain.
func buildDaemon(benchDir, binDir string) (string, error) {
	bin := filepath.Join(binDir, "commservd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/commservd")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build commservd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr picks a loopback port nothing is listening on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// daemon is the commservd child process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	stderr bytes.Buffer
	exited chan struct{}
	once   sync.Once
}

// startDaemon launches commservd over store with the benchmark's fixed
// flags and returns once /readyz answers 200.
func startDaemon(bin, store string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-store", store, "-addr", addr,
		"-watch", "250ms", "-max-inflight", "1024", "-log-level", "warn")
	d.cmd.Stderr = &d.stderr
	// If the harness is killed outright the daemon must not linger.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("bench: commservd exited before ready:\n%s", d.stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bench: commservd not ready after 60s:\n%s", d.stderr.String())
		}
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
}

// clockTick is Linux's USER_HZ, the unit of /proc/PID/stat CPU times.
const clockTick = 100

// procCPU returns a process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}

// fetch GETs one URL outside any measured phase.
func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return body, nil
}

// fetchStats reads /v1/stats.
func fetchStats(base string) (serve.ServerStats, error) {
	var st serve.ServerStats
	body, err := fetch(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// scrapeMetrics times one /metrics scrape and lints the exposition.
func scrapeMetrics(base string) (time.Duration, error) {
	start := time.Now()
	body, err := fetch(base + "/metrics")
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	if err := obs.Lint(body); err != nil {
		return 0, fmt.Errorf("bench: /metrics exposition: %w", err)
	}
	return elapsed, nil
}

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonArgs is aeropackd's fixed configuration: two solver workers per
// study and two studies in flight on a two-core budget, the default
// queue, and a memory-only cache (no -cache-dir).
var daemonArgs = []string{"-addr", "127.0.0.1:0", "-workers", "2", "-max-inflight", "2", "-max-queue", "64"}

// buildDaemon builds repo's cmd/aeropackd into the binary bin.
func buildDaemon(repo, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aeropackd")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building aeropackd: %v\n%s", err, out)
	}
	return nil
}

// daemon is one running aeropackd.
type daemon struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:<port>"
	// drained is closed once the stderr reader has seen EOF, which
	// os/exec requires before Wait.
	drained chan struct{}
	tail    *bytes.Buffer // last stderr lines, for error reports
}

// startTimeout bounds the wait for aeropackd's listening banner and
// first healthy /healthz.
const startTimeout = 30 * time.Second

// startDaemon execs bin and returns once /healthz answers 200.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, daemonArgs...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting aeropackd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), tail: new(bytes.Buffer)}
	addr := make(chan string, 1)
	go d.readStderr(pipe, addr)
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained: // exited before listening
	case <-time.After(startTimeout):
	}
	err = errors.New("aeropackd printed no listening address")
	if d.base != "" {
		if err = d.waitHealthy(); err == nil {
			return d, nil
		}
	}
	stopErr := d.stop()
	// stop has waited for the stderr reader, so the tail is complete.
	return nil, errors.Join(fmt.Errorf("%w; its stderr:\n%s", err, d.tail), stopErr)
}

// readStderr forwards the listening address once and keeps draining
// stderr until aeropackd closes it.
func (d *daemon) readStderr(pipe io.Reader, addr chan<- string) {
	defer close(d.drained)
	sc := bufio.NewScanner(pipe)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "aeropackd: listening on "); ok && !sent {
			addr <- strings.TrimSpace(a)
			sent = true
		}
		if d.tail.Len() < 4096 {
			d.tail.WriteString(line + "\n")
		}
	}
}

// waitHealthy polls /healthz every millisecond until it answers 200.
func (d *daemon) waitHealthy() error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(startTimeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			// Drained and closed for connection reuse only; the status is
			// all that matters.
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("aeropackd at %s never answered /healthz", d.base)
}

// stop sends SIGTERM, waits for aeropackd to exit (killing it after a
// grace period) and reaps it.
func (d *daemon) stop() error {
	sigErr := d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // already exiting if this fails
		<-d.drained
	}
	err := d.cmd.Wait()
	if sigErr != nil || err != nil {
		return fmt.Errorf("stopping aeropackd: %v", errors.Join(sigErr, err))
	}
	return nil
}

// scrape reads /metrics into a name → value map.  Histograms contribute
// their _sum and _count series; bucket lines are skipped.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer func() { _ = resp.Body.Close() }() // read-only: a close error loses nothing
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("malformed /metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// procCPU returns the process's user+system CPU time in seconds, all
// threads included.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis start at field 3, so utime (14) and stime (15)
	// are at offsets 11 and 12.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat: %w", pid, err)
	}
	return float64(ut+st) / clockTicks, nil
}

// residentMB returns the process's resident set size (VmRSS) in MiB.
func residentMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmRSS line %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

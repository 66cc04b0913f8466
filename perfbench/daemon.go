package main

import (
	"bufio"
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
	"syscall"
	"time"
)

// daemon is one slapd or slapfront child process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port it listens on
	done chan struct{}
}

// startDaemon execs bin with args and waits for its "listening on"
// line, which carries the port the kernel picked for -addr :0.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// A benchmark killed outright must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{name: filepath.Base(bin), cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Drain stdout for the process's lifetime so it never blocks on
		// a full pipe; the first "listening on" line names the address.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addrc <- strings.Fields(rest)[0]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening", d.name)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address within 10s", d.name)
	}
}

func (d *daemon) url() string { return "http://" + d.addr }

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within five seconds, and returns once it is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; Linux fixes it at 100 for user space.
const clockTicks = 100

// cpuSeconds is the process's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it do not.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB is the process's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fleet is the set of daemons one workload runs against: a single
// slapd, or slapfront over two slapd backends.
type fleet struct {
	backends []*daemon // every slapd
	front    *daemon   // slapfront, nil for a single slapd
}

// backendCount is how many slapd processes sit behind slapfront.
const backendCount = 2

// startFleet execs the workload's daemons from binDir.
func startFleet(binDir string, front bool) (*fleet, error) {
	f := &fleet{}
	n := 1
	if front {
		n = backendCount
	}
	var urls []string
	for i := 0; i < n; i++ {
		d, err := startDaemon(filepath.Join(binDir, "slapd"), "-addr", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, d)
		urls = append(urls, d.url())
	}
	if front {
		d, err := startDaemon(filepath.Join(binDir, "slapfront"), "-addr", "127.0.0.1:0",
			"-backends", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.front = d
	}
	return f, nil
}

// all lists every daemon, front first.
func (f *fleet) all() []*daemon {
	if f.front != nil {
		return append([]*daemon{f.front}, f.backends...)
	}
	return f.backends
}

// entry is the daemon clients talk to.
func (f *fleet) entry() *daemon {
	if f.front != nil {
		return f.front
	}
	return f.backends[0]
}

func (f *fleet) stop() {
	for _, d := range f.all() {
		d.stop()
	}
}

// waitHealthy polls every daemon's /healthz until each answers 200.
func (f *fleet) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range f.all() {
		for {
			resp, err := hc.Get(d.url() + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy within %v", d.name, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// cpuSeconds sums user+system CPU over every daemon.
func (f *fleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, d := range f.all() {
		s, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// peakRSSMB sums VmHWM over every daemon.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range f.all() {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// promSample is one scraped Prometheus series: name{labels} → value.
type promSample map[string]float64

// scrape fetches a daemon's /metrics.
func scrape(ctx context.Context, hc *http.Client, d *daemon) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url()+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body)), nil
}

func parseProm(text string) promSample {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series whose name (before any labels) is metric.
func (p promSample) sum(metric string) float64 {
	total := 0.0
	for k, v := range p {
		if k == metric || strings.HasPrefix(k, metric+"{") {
			total += v
		}
	}
	return total
}

package main

import (
	"bufio"
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

// daemon is a running leased child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // protocol listener
	debug   string // http://host:port of the debug server
	logDone chan struct{}
	exited  chan struct{}
	waitErr error
}

// startLeased launches leased with its default flags plus args, in dir (so
// anything it writes relative to its working directory stays there), and
// returns once it logs both listeners: it logs them only after seeding every
// object.
func startLeased(bin, dir string, args ...string) (*daemon, error) {
	full := append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-stats", "0"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Dir = dir
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + "/leased.log")
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start leased: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{}), exited: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		var a [2]string
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "leased: serving volume"); i >= 0 {
				a[0] = line[strings.LastIndex(line, " ")+1:]
			}
			if i := strings.Index(line, "debug server on http://"); i >= 0 {
				rest := line[i+len("debug server on "):]
				a[1] = strings.Fields(rest)[0]
			}
			if !sent && a[0] != "" && a[1] != "" {
				addrs <- a
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-d.logDone
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addrs:
		d.addr, d.debug = a[0], a[1]
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("leased exited during start-up (%v); see %s/leased.log", d.waitErr, dir)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("leased did not report its listeners within 60s")
	}
}

// stop terminates the daemon and waits for it to exit; it is safe to call
// more than once.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// clkTck is USER_HZ, the unit of /proc CPU times, on every Linux
// architecture Go supports.
const clkTck = 100

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	// After the command name: state is field 3, utime 14, stime 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat %q", s)
	}
	return (ut + st) / clkTck, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape is one /metrics sample: series name with labels → value.
type scrape map[string]float64

var httpc = &http.Client{Timeout: 10 * time.Second}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := httpc.Get("http://" + strings.TrimPrefix(d.debug, "http://") + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (d *daemon) metrics() (scrape, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series whose name (labels stripped) is name and whose label
// set contains each of labels.
func (s scrape) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		base := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base = k[:i]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after-before for the summed series.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

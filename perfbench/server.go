package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel clock-tick rate /proc/<pid>/stat counts CPU time in;
// 100 on effectively all Linux systems.
const userHZ = 100

// child is one serenade-server process under test.
type child struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin on a free loopback port with the given flags and
// waits until GET /healthz answers.
func startServer(bin, logPath string, flags []string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported through healthz and stop
		close(c.exited)
	}()
	if err := c.waitHealthy(30 * time.Second); err != nil {
		c.stop()
		return nil, fmt.Errorf("%w\n%s", err, tailFile(logPath, 20))
	}
	return c, nil
}

func (c *child) waitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("server exited during start-up")
		default:
		}
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server did not answer /healthz within %v", limit)
}

// stop terminates the server gracefully, killing it if it does not drain in
// time, and waits until the process has exited.
func (c *child) stop() {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // a dead process is handled below
		select {
		case <-c.exited:
		case <-time.After(15 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.exited
		}
	}
	c.log.Close()
}

// cpuTime is the server's cumulative user+system CPU time.
func (c *child) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	stat := string(data)
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// processCPU is the CPU time all threads of process pid have run, summed
// from their scheduler statistics (nanoseconds, where /proc/<pid>/stat
// counts 10 ms ticks).
func processCPU(pid int) (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no scheduler statistics for process %d", pid)
	}
	var sum time.Duration
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited after the glob
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s", p)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s", p)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// cpuTicks reads the machine-wide CPU counters of /proc/stat: the total
// and the time a hypervisor ran something else while this VM wanted the CPU
// (steal). The benchmark prints the steal share of each fixed-rate phase:
// latency and capacity read during heavy steal measure the host, not the
// server.
func cpuTicks() (total, steal uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("malformed /proc/stat")
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// peakRSS is the server's high-water resident set (VmHWM) in MiB.
func (c *child) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads the server's Prometheus exposition into series → value,
// keyed by the series name with its label set.
func (c *child) scrape(ctx context.Context) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics.prom", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

type promSample map[string]float64

func parseProm(body []byte) promSample {
	out := promSample{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[string(line[:i])] = v
	}
	return out
}

// delta is after[name] − before[name].
func delta(before, after promSample, name string) float64 { return after[name] - before[name] }

// tailFile returns the last n lines of a file, for error reports.
func tailFile(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

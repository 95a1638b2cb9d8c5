package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cardestd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	args []string
	done chan struct{}
	err  error // Wait's result, set before done closes
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts bin with args plus a fresh -addr, logging to logPath,
// and returns once /healthz answers 200, with the time that took.
func startDaemon(bin, dir, logPath string, args []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{
		cmd:  exec.Command(bin, args...),
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		args: args,
		done: make(chan struct{}),
	}
	d.cmd.Dir, d.cmd.Stdout, d.cmd.Stderr = dir, logf, logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("daemon exited during start-up (%v); see %s", d.err, logPath)
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 2*time.Minute {
			d.kill()
			return nil, 0, fmt.Errorf("daemon not healthy after 2m; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, which makes the daemon drain and close its journal,
// and waits for it to exit; past 30s it is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("daemon did not drain within 30s")
	}
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.done
}

// metrics scrapes /metrics.
func (d *daemon) metrics() (map[string]any, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

// profile fetches a CPU profile of secs seconds from the -pprof listener.
func profile(ctx context.Context, addr string, secs int, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile: status %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.ReadFrom(resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTicks is the process's user plus system time in clock ticks, from
// /proc/<pid>/stat (fields 14 and 15).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields restart after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// ticksPerSecond is the kernel's USER_HZ, which /proc reports times in; it
// is 100 on every Linux architecture Go supports.
const ticksPerSecond = 100

// peakRSS is the process's VmHWM in KiB.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU is the aggregate "cpu" line of /proc/stat: total and steal ticks.
func hostCPU() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		// guest and guest_nice (fields 9 and 10) are already in user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childSet tracks every process and scratch directory the benchmark
// creates, so each exit path (normal, error, panic, signal) stops and reaps
// the processes and removes the directories.
type childSet struct {
	mu    sync.Mutex
	procs []*exec.Cmd
	dirs  []string
}

var children childSet

func (c *childSet) addProc(cmd *exec.Cmd) {
	c.mu.Lock()
	c.procs = append(c.procs, cmd)
	c.mu.Unlock()
}

func (c *childSet) addDir(dir string) {
	c.mu.Lock()
	c.dirs = append(c.dirs, dir)
	c.mu.Unlock()
}

// stop terminates one child and waits for it: SIGTERM, then SIGKILL after a
// grace period. Safe to call more than once.
func (c *childSet) stop(cmd *exec.Cmd) {
	c.mu.Lock()
	for i, p := range c.procs {
		if p == cmd {
			c.procs = append(c.procs[:i], c.procs[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	terminate(cmd)
}

// stopAll stops every tracked child and removes every scratch directory.
func (c *childSet) stopAll() {
	c.mu.Lock()
	procs, dirs := c.procs, c.dirs
	c.procs, c.dirs = nil, nil
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *exec.Cmd) {
			defer wg.Done()
			terminate(p)
		}(p)
	}
	wg.Wait()
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// terminate signals cmd's process and reaps it.
func terminate(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	done := make(chan struct{})
	go func() {
		cmd.Wait() //nolint:errcheck // exit status of a killed child is expected
		close(done)
	}()
	cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // may have exited already
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // may have exited already
		<-done
	}
}

// freeAddr reserves a free loopback port and releases it for the child to
// bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// womd is one running womd process.
type womd struct {
	cmd *exec.Cmd
	url string
	pid int
}

// startWomd launches the built womd on a free loopback port with the given
// extra flags and waits for /readyz. Every daemon runs with -workers nproc
// and its default planes (tracing, alerts, history, per-job perf); the
// runtime poller runs at 250ms so allocation counters resolve sub-second
// windows.
func startWomd(cfg *config, name string, extra ...string) (*womd, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := append([]string{"-addr", addr, "-workers", strconv.Itoa(cfg.nproc),
			"-runtime-metrics", "250ms"}, extra...)
		logPath := filepath.Join(cfg.work, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano()))
		logFile, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(filepath.Join(cfg.bin, "womd"), args...)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		cmd.Dir = cfg.work
		if err := cmd.Start(); err != nil {
			logFile.Close()
			return nil, fmt.Errorf("starting %s: %w", name, err)
		}
		logFile.Close() // the child holds its own descriptor
		children.addProc(cmd)
		logf("%s: womd pid %d on %s", name, cmd.Process.Pid, addr)
		w := &womd{cmd: cmd, url: "http://" + addr, pid: cmd.Process.Pid}
		if err := waitReady(w.url+"/readyz", 20*time.Second); err != nil {
			children.stop(cmd)
			// The log goes with the run's scratch directory; keep its tail.
			out, _ := os.ReadFile(logPath) // best effort: only for the message
			lastErr = fmt.Errorf("%s not ready: %w; log tail:\n%s", name, err, out[max(len(out)-2000, 0):])
			continue
		}
		return w, nil
	}
	return nil, lastErr
}

// stopWomd stops and reaps one daemon.
func stopWomd(w *womd) {
	if w != nil {
		children.stop(w.cmd)
	}
}

// waitReady polls url until it answers 200.
func waitReady(url string, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after the last ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// After ')': state is field 3, utime 14 and stime 15 (1-based).
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// peakRSS returns a process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				return kb * 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

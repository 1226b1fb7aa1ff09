//go:build linux

package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir receives everything a run leaves behind: the daemon binary, its
// captured output, and the trace files. It is git-ignored.
const outDir = "bench/out"

// daemonShards is the daemon's -shards value: one scoring shard per CPU
// of the two-CPU box the bounds were measured on.
const daemonShards = 2

// cleanup tracks what must not outlive the benchmark — the daemon
// process and the temporary model directories — so that every exit path,
// SIGINT and SIGTERM included, kills by PID and removes them.
var cleanup struct {
	mu   sync.Mutex
	proc *os.Process
	dirs []string
}

// runCleanup kills the tracked daemon and removes the tracked
// directories. Safe to call more than once.
func runCleanup() {
	cleanup.mu.Lock()
	defer cleanup.mu.Unlock()
	if cleanup.proc != nil {
		_ = cleanup.proc.Kill() // already exited is fine
		cleanup.proc = nil
	}
	for _, d := range cleanup.dirs {
		os.RemoveAll(d)
	}
	cleanup.dirs = nil
}

// cleanupOnSignal makes an interrupted benchmark leave nothing behind.
func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		runCleanup()
		os.Exit(130)
	}()
}

// tempDir creates a tracked scratch directory under outDir.
func tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp(outDir, pattern)
	if err != nil {
		return "", err
	}
	cleanup.mu.Lock()
	cleanup.dirs = append(cleanup.dirs, dir)
	cleanup.mu.Unlock()
	return dir, nil
}

// buildDaemon compiles cmd/misused once per process into outDir. The
// benchmark runs from the repository root (it needs go.mod to build the
// program it measures); build time is not part of any metric.
func buildDaemon() (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run the benchmark from the repository root: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "misused"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/misused")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build misused: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running misused process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	log     *os.File
}

// startDaemon starts a fresh misused on a free loopback port, its output
// captured to logPath. The caller dials addr until the daemon answers.
func startDaemon(bin, modelDir, logPath string, args []string) (*daemon, error) {
	// Pick a free port by binding and releasing it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-model", modelDir, "-listen", addr, "-shards", strconv.Itoa(daemonShards)}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not survive a benchmark that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start misused: %w", err)
	}
	cleanup.mu.Lock()
	cleanup.proc = cmd.Process
	cleanup.mu.Unlock()
	return &daemon{cmd: cmd, addr: addr, logPath: logPath, log: logf}, nil
}

// dial connects to the daemon, retrying while it loads its model.
func (d *daemon) dial(timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("misused did not listen on %s within %v (see %s): %w", d.addr, timeout, d.logPath, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startLines is what a healthy daemon prints while starting: the
// thresholds it loaded and its listen banner.
const startLines = 2

// stop kills the daemon by PID, waits for it, and returns the number of
// lines it logged beyond its start lines.
func (d *daemon) stop() int {
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // the exit status of a killed process carries nothing
	cleanup.mu.Lock()
	cleanup.proc = nil
	cleanup.mu.Unlock()
	d.log.Close()
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return 0
	}
	return max(bytes.Count(data, []byte{'\n'})-startLines, 0)
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU reads a process's consumed CPU time (user + system).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS reads a process's resident-set high-water mark in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

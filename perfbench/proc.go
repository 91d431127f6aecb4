package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childEnv is the environment the measured programs run in: the caller's
// environment minus the Go runtime settings that would change what is
// measured, so every run uses the runtime defaults.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMEMLIMIT", "GOMAXPROCS", "GODEBUG", "GOTRACEBACK":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// procResult is what the kernel accounts to one finished child process.
type procResult struct {
	Wall   time.Duration // from start to exit, as the parent observes it
	CPU    time.Duration // user + system time of the child
	MaxRSS int64         // peak resident set of the child's program, bytes
}

// The peak resident set the kernel reports for an exited child is not
// the child program's alone: exec records the peak of the memory image
// it replaces, and os/exec starts children on a copy or a share of this
// process's image, so the figure is at least this harness's own peak.
// A child's peak therefore comes from VmHWM in /proc while it lives, and
// the exit figure is used only where it exceeds the harness's peak.

// vmHWM reads the peak resident set of a live process ("self" for this
// one) from /proc, in bytes.
func vmHWM(pid string) (int64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kib << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// hwmPollEvery is how often runChild samples a running child's VmHWM.
const hwmPollEvery = 10 * time.Millisecond

// runChild runs one program to completion and accounts its cost. The
// child's standard error is kept and returned in the error if it fails.
func runChild(bin string, args ...string) (procResult, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv()
	var stderr strings.Builder
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procResult{}, err
	}
	// Sample the child's peak until it exits; the last sample may miss
	// a rise in its final moments, so the exit figure is preferred when
	// it is the child's own.
	pid := strconv.Itoa(cmd.Process.Pid)
	exited := make(chan struct{})
	polled := make(chan int64, 1)
	go func() {
		var peak int64
		tick := time.NewTicker(hwmPollEvery)
		defer tick.Stop()
		for {
			if v, err := vmHWM(pid); err == nil {
				peak = max(peak, v)
			}
			select {
			case <-exited:
				polled <- peak
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	close(exited)
	peak := <-polled
	if err != nil {
		return procResult{}, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, tail(stderr.String()))
	}
	r := procResult{Wall: wall}
	var atExit int64
	r.CPU, atExit = usage(cmd.ProcessState)
	if own, err := vmHWM("self"); err == nil && atExit > own {
		peak = atExit
	}
	if peak == 0 {
		return procResult{}, fmt.Errorf("%s: no peak resident set measured", filepath.Base(bin))
	}
	r.MaxRSS = peak
	return r, nil
}

func usage(ps *os.ProcessState) (cpu time.Duration, maxRSS int64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return ps.UserTime() + ps.SystemTime(), ru.Maxrss << 10 // Linux reports KiB
}

func tail(s string) string {
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return strings.TrimSpace(s)
}

// serverProc is a lockstep-serve child process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	logs    *logTail
	drained chan struct{} // closed once the stderr reader has returned
}

// logTail keeps the last bytes a child wrote, for error messages.
type logTail struct {
	mu  sync.Mutex
	buf []byte
}

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.buf = append(l.buf, p...)
	if len(l.buf) > 4096 {
		l.buf = l.buf[len(l.buf)-4096:]
	}
	l.mu.Unlock()
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}

// startServer starts lockstep-serve on a free loopback port with its
// campaign API in dataDir and waits until it listens.
func startServer(bin, dataDir string) (*serverProc, error) {
	cmd := exec.Command(filepath.Join(bin, "lockstep-serve"),
		"-addr", "127.0.0.1:0", "-data", dataDir,
		"-campaign-workers", "1", "-inject-workers", fmt.Sprint(campaignWorkers))
	cmd.Env = childEnv()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, logs: &logTail{}, drained: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(s.logs, line)
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				select {
				case addr <- line[i+len("listening on "):]:
				default:
				}
			}
		}
		io.Copy(io.Discard, pipe)
	}()
	select {
	case s.base = <-addr:
		return s, nil
	case <-s.drained:
	case <-time.After(60 * time.Second):
	}
	s.kill()
	return nil, fmt.Errorf("lockstep-serve did not start listening: %s", tail(s.logs.String()))
}

// cpu reads the server's user + system time so far from /proc.
func (s *serverProc) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may hold spaces; fields follow it.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	// /proc reports clock ticks of USER_HZ, which Linux fixes at 100.
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// hostSteal is the CPU time the hypervisor has given other guests while
// this host's CPUs were ready to run, summed over CPUs: the steal column
// of /proc/stat. It reads 0 where the kernel does not account steal.
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	// USER_HZ ticks, as in cpu().
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit. It returns the server's peak resident set in bytes,
// read while it still serves.
func (s *serverProc) stop() (int64, error) {
	peak, err := vmHWM(strconv.Itoa(s.cmd.Process.Pid))
	if err != nil {
		s.kill()
		return 0, err
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, err
	}
	// The stderr reader sees EOF once the process has exited; Wait may
	// only run after it, since Wait closes the pipe.
	timedOut := false
	select {
	case <-s.drained:
	case <-time.After(60 * time.Second):
		timedOut = true
		s.cmd.Process.Kill()
		<-s.drained
	}
	err = s.cmd.Wait()
	switch {
	case timedOut:
		return 0, errors.New("lockstep-serve did not drain within 60s")
	case err != nil:
		return 0, fmt.Errorf("lockstep-serve exit: %v: %s", err, tail(s.logs.String()))
	}
	return peak, nil
}

// kill ends the server at once and waits for it; for error paths.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.drained
	s.cmd.Wait()
}

// selfCPU is this process's user + system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

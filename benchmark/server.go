package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The fixed conditions every server child runs under. They are constants of
// the ledger: a run on other settings is another benchmark.
const (
	serverGOGC       = "100"
	serverGOMEMLIMIT = "4GiB"
	serverHardMem    = 1 << 30 // per-request hard watermark: a runaway query is a 507, not a dead machine
	serverTimeout    = "30s"
	serverWorkers    = 2
)

// Server is one omega-serve child.
type Server struct {
	Addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error // from Wait; read after done is closed
}

// StartServer execs bin on a free loopback port over the saved dataset and
// returns once the listener accepts. started is the instant before exec, the
// origin of setup_s.
func StartServer(bin, dataDir, workDir string) (s *Server, started time.Time, err error) {
	place() // before the clock starts: the probe is the harness's time, not the server's

	// Ask the kernel for a free port, then hand it to the child: omega-serve
	// logs the address it was given, not the one it bound, so ":0" would leave
	// the generator guessing.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, started, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.Create(filepath.Join(workDir, "server.log"))
	if err != nil {
		return nil, started, err
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-graph", filepath.Join(dataDir, "graph.txt"),
		"-ontology", filepath.Join(dataDir, "ontology.txt"),
		"-workers", strconv.Itoa(serverWorkers),
		"-max-limit", "0",
		"-hard-mem", strconv.Itoa(serverHardMem),
		"-timeout", serverTimeout,
		"-spill-dir", workDir,
		"-janitor=false",
		"-quiet",
	)
	cmd.Env = append(os.Environ(),
		"GOMAXPROCS="+strconv.Itoa(serverProcs()),
		"GOGC="+serverGOGC,
		"GOMEMLIMIT="+serverGOMEMLIMIT,
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the generator dies on a path that runs no deferred call (a panic on
	// a connection goroutine, SIGKILL), the kernel kills the child. main
	// holds its OS thread for the life of the process, as Pdeathsig is tied to
	// the thread that forked.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	started = time.Now()
	if err := startPinned(cmd.Start); err != nil {
		logf.Close()
		return nil, started, err
	}
	s = &Server{Addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	for deadline := started.Add(60 * time.Second); ; {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return s, started, nil
		}
		select {
		case <-s.done:
			s.log.Close()
			return nil, started, fmt.Errorf("omega-serve exited during boot (%v): %s", s.err, s.Log())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, started, fmt.Errorf("omega-serve did not listen on %s within 60s", addr)
		}
	}
}

// Stop ends the child and waits for it: SIGTERM for the server's own drain
// and spill clean-up, SIGKILL if that takes more than five seconds. Stopping
// a stopped server does nothing.
func (s *Server) Stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// Log returns the tail of the child's output, for error messages.
func (s *Server) Log() string {
	b, _ := os.ReadFile(s.log.Name())
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(bytes.TrimSpace(b))
}

// CPUSeconds reads the CPU time the child has used, all threads, from the
// scheduler's per-task clocks (nanoseconds; /proc/<pid>/stat counts in 10 ms
// ticks, too coarse for a 250 ms block). It returns 0 when the clocks cannot
// be read, which the kernel allows only once the child is gone.
func (s *Server) CPUSeconds() float64 {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f, _, _ := strings.Cut(string(b), " ")
		v, _ := strconv.ParseInt(f, 10, 64)
		ns += v
	}
	return float64(ns) / 1e9
}

// PeakRSSMB reads the child's resident-set high-water mark.
func (s *Server) PeakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// Statsz is the part of the server's /statsz the ledger reads.
type Statsz struct {
	PlanCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
	Pool struct {
		Gets   int64 `json:"gets"`
		Reuses int64 `json:"reuses"`
	} `json:"pool"`
	Runtime struct {
		HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
		NumGC          uint32 `json:"num_gc"`
	} `json:"runtime"`
}

// ReadStatsz fetches /statsz over a connection of its own.
func (s *Server) ReadStatsz() (st Statsz, err error) {
	c, err := Dial(s.Addr)
	if err != nil {
		return st, err
	}
	defer c.Close()
	b, err := c.Get("/statsz")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

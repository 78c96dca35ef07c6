package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// CPU placement. Left to the kernel, generator and server land on the same
// core in some runs and on different cores in others, and a workload that
// streams a row per write turns into a different benchmark each time
// (exact_scan throughput spread 40% between runs unpinned). So the generator
// takes one of the CPUs the process may use and every server child the rest.
//
// Which one: on the virtual machines this runs on, a core goes 15–45% slower
// for seconds to minutes at a time while the other does not (a neighbour on
// the sibling hardware thread; see NOISE.md), and a server that sits on the
// slow core for a whole run reads a quarter slower. Before every boot the
// harness therefore times a fixed arithmetic loop on each CPU and leaves the
// generator the slowest: the server, whose time is what is measured, gets the
// quiet ones. On one CPU, or where the kernel refuses, nothing is pinned and
// the conditions line says so.

// cpuMask is a sched_setaffinity bit mask (1024 CPUs).
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// list returns the CPUs in m, ascending.
func (m *cpuMask) list() []int {
	var out []int
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

// setAffinity restricts thread tid (0: the calling thread) to m.
func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// placement is where the generator and the server children run.
type placement struct {
	pinned         bool
	allowed        []int // the CPUs the process started with
	generator, srv cpuMask
	genCPU         int
	probeMs        []float64 // the last probe, per allowed CPU
}

var cpus placement

// probeSink keeps spin's result alive.
var probeSink uint64

// spin is the probe's fixed work: about 10 ms of dependent integer
// arithmetic at 2 GHz, no memory traffic.
func spin() {
	x := probeSink | 1
	for i := 0; i < 12_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	probeSink = x
}

// place probes every allowed CPU (best of three spins each), gives the
// generator the slowest and the server children the rest, and moves the
// generator's threads. It takes about 30 ms per CPU; callers run it before
// they start a clock.
func place() {
	if len(cpus.allowed) < 2 {
		return
	}
	// main is locked to its thread already; a test's goroutine is not, and
	// must not migrate while it hops from CPU to CPU.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpus.pinned = false
	defer func() {
		if !cpus.pinned { // the kernel refused part-way: undo what it allowed
			var all cpuMask
			for _, cpu := range cpus.allowed {
				all.set(cpu)
			}
			_ = setAffinity(0, &all)
		}
	}()
	cpus.probeMs = cpus.probeMs[:0]
	var worst time.Duration
	for _, cpu := range cpus.allowed {
		var one cpuMask
		one.set(cpu)
		if setAffinity(0, &one) != nil {
			return
		}
		best := time.Duration(-1)
		for try := 0; try < 3; try++ {
			t := time.Now()
			spin()
			if d := time.Since(t); best < 0 || d < best {
				best = d
			}
		}
		cpus.probeMs = append(cpus.probeMs, ms(best))
		if best > worst {
			worst, cpus.genCPU = best, cpu
		}
	}
	cpus.generator, cpus.srv = cpuMask{}, cpuMask{}
	for _, cpu := range cpus.allowed {
		if cpu == cpus.genCPU {
			cpus.generator.set(cpu)
		} else {
			cpus.srv.set(cpu)
		}
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil || setAffinity(tid, &cpus.generator) != nil {
			return
		}
	}
	cpus.pinned = true
}

// pinGenerator reads the CPUs the process may use and makes the first
// placement. It runs once, at start.
func pinGenerator() {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return
	}
	cpus.allowed = allowed.list()
	place()
}

// startPinned starts a child on the server's CPUs: a child inherits the
// affinity of the thread that forks it, so the calling thread — main's, which
// it never leaves — moves over for the fork and back.
func startPinned(start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if !cpus.pinned || setAffinity(0, &cpus.srv) != nil {
		return start()
	}
	err := start()
	// Cannot fail: the same call with the same mask succeeded in place.
	_ = setAffinity(0, &cpus.generator)
	return err
}

// serverProcs is the GOMAXPROCS of a server child: the CPUs it is pinned to,
// or every CPU but the one left to the generator. With the default setting on
// a two-core box the server's background collector competes with the
// generator, and both CPU per request and the run-to-run spread go up.
func serverProcs() int {
	if cpus.pinned {
		return len(cpus.allowed) - 1
	}
	return max(1, runtime.NumCPU()-1)
}

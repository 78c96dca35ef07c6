package serve

import (
	"context"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"omega"
)

// This file implements the server-wide memory broker: the counterpart of the
// per-execution hard watermark (omega.ExecOptions.HardMemBytes). Per-request
// budgets bound each execution in isolation, but a server runs many at once —
// the broker bounds their sum. Every running request registers its MemGauge
// and its cancel lever; a monitor goroutine samples the gauges, and when
// their sum stays over budget for consecutive ticks, the largest-footprint
// execution is aborted with omega.ErrMemBudget (HTTP 507). Killing the
// largest victim frees the most bytes per abort, so small well-behaved
// queries keep streaming through the pressure. The broker never turns a
// request away: admission is the scheduler's Workers+Queue bound alone.

// defaultMemCheckInterval paces the victim-selection monitor. Two consecutive
// over-budget ticks are required before a kill, so the worst-case reaction
// time is ~3 intervals.
const defaultMemCheckInterval = 100 * time.Millisecond

// BrokerStats is a snapshot of the memory broker's counters (the /statsz
// "mem_broker" section).
type BrokerStats struct {
	// BudgetBytes is the global accounted-bytes budget.
	BudgetBytes int64 `json:"budget_bytes"`
	// LiveBytes is the sum of accounted live bytes across running executions
	// at the last monitor tick, and PeakLiveBytes its lifetime maximum.
	LiveBytes     int64 `json:"live_bytes"`
	PeakLiveBytes int64 `json:"peak_live_bytes"`
	// VictimKills counts executions aborted by the pressure monitor;
	// BudgetAborts counts every request that failed with omega.ErrMemBudget
	// (victim kills plus per-request hard-watermark crossings).
	VictimKills  int64 `json:"victim_kills"`
	BudgetAborts int64 `json:"budget_aborts"`
	// InFlight is the number of registered requests.
	InFlight int `json:"in_flight"`
}

// memLease is one running request's registration with the broker: its gauge
// (what the monitor samples) and its cancel lever (how the monitor kills it).
type memLease struct {
	gauge  *omega.MemGauge
	cancel context.CancelCauseFunc
	killed bool
}

// memBroker watches the registered requests against a global accounted-bytes
// budget and victimizes the largest-footprint execution under sustained
// pressure.
type memBroker struct {
	budget int64

	mu        sync.Mutex
	leases    map[*memLease]struct{}
	live      int64 // sum of lease gauges at the last monitor tick
	peakLive  int64
	overTicks int
	stats     BrokerStats // counters only; gauge fields filled by Stats

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// goMemLimit returns the runtime's soft memory limit (the GOMEMLIMIT
// environment variable), or 0 when none is set.
func goMemLimit() int64 {
	if lim := debug.SetMemoryLimit(-1); lim != math.MaxInt64 {
		return lim
	}
	return 0
}

// newMemBroker builds a broker from the server config, or returns nil when no
// budget is configured: budget 0 defaults to GOMEMLIMIT (and to disabled when
// that is unset too), negative disables explicitly.
func newMemBroker(budget int64, interval time.Duration) *memBroker {
	if budget == 0 {
		budget = goMemLimit()
	}
	if budget <= 0 {
		return nil
	}
	if interval <= 0 {
		interval = defaultMemCheckInterval
	}
	b := &memBroker{
		budget: budget,
		leases: make(map[*memLease]struct{}),
		stop:   make(chan struct{}),
	}
	b.wg.Add(1)
	go b.monitor(interval)
	return b
}

// Register binds one request's gauge and cancel lever to a lease the monitor
// watches. Release the lease when the request finishes, whatever its outcome.
func (b *memBroker) Register(gauge *omega.MemGauge, cancel context.CancelCauseFunc) *memLease {
	l := &memLease{gauge: gauge, cancel: cancel}
	b.mu.Lock()
	b.leases[l] = struct{}{}
	b.mu.Unlock()
	return l
}

// Release drops a lease from the monitor's watch set.
func (b *memBroker) Release(l *memLease) {
	b.mu.Lock()
	delete(b.leases, l)
	b.mu.Unlock()
}

// NoteBudgetAbort counts one request that failed with omega.ErrMemBudget —
// whether from its own hard watermark or from a victim kill.
func (b *memBroker) NoteBudgetAbort() {
	b.mu.Lock()
	b.stats.BudgetAborts++
	b.mu.Unlock()
}

// monitor samples the lease gauges and victimizes the largest-footprint
// execution after two consecutive over-budget ticks: one tick may catch
// executions that are about to finish, whose refunds clear the pressure
// without a kill.
func (b *memBroker) monitor(interval time.Duration) {
	defer b.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-ticker.C:
		}
		b.tick()
	}
}

func (b *memBroker) tick() {
	b.mu.Lock()
	defer b.mu.Unlock()
	var live int64
	var victim *memLease
	var victimLive int64
	for l := range b.leases {
		n := l.gauge.LiveBytes()
		live += n
		if !l.killed && n > victimLive {
			victim, victimLive = l, n
		}
	}
	b.live = live
	if live > b.peakLive {
		b.peakLive = live
	}
	if live <= b.budget {
		b.overTicks = 0
		return
	}
	b.overTicks++
	if b.overTicks < 2 || victim == nil {
		return
	}
	// Abort the largest-footprint execution: its context cancellation carries
	// ErrMemBudget as the cause, which the evaluator maps back onto the typed
	// error (and which poisons its pooled state). Reset the tick count so the
	// kill gets a full grace period to free its bytes before the next one.
	victim.killed = true
	victim.cancel(omega.ErrMemBudget)
	b.stats.VictimKills++
	b.overTicks = 0
}

// Stats returns a snapshot of the broker's counters.
func (b *memBroker) Stats() BrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.BudgetBytes = b.budget
	s.LiveBytes = b.live
	s.PeakLiveBytes = b.peakLive
	s.InFlight = len(b.leases)
	return s
}

// Close stops the pressure monitor. Idempotent.
func (b *memBroker) Close() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}

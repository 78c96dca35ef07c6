// Package fault is Omega's deterministic fault-injection registry. Production
// code declares named failpoint sites — fault.Inject("serve.write") — at the
// places that can actually fail in deployment (evaluator loops, the memory
// governor, the HTTP write path); tests and chaos runs arm those sites with
// error, delay or panic actions and the code under test exercises its real
// recovery paths. With no sites armed (the production state) Inject is a
// single atomic load, so the hooks are safe to leave in hot paths.
//
// Sites are armed programmatically (Configure) or from the environment at
// process start:
//
//	OMEGA_FAILPOINTS="serve.write=error@0.5;core.row=panic#1"
//	OMEGA_FAILPOINTS_SEED=42
//
// The spec grammar is a ';'-separated list of site=action entries where
// action is one of
//
//	error            return ErrInjected from Inject
//	delay:DURATION   sleep for DURATION, then return nil
//	panic            panic with a *PanicError
//
// optionally followed by @P (fire with probability P per evaluation, drawn
// from a per-site RNG seeded deterministically from the registry seed and the
// site name, so schedules are reproducible regardless of goroutine
// interleaving per site) and/or #N (fire at most N times). Every evaluation
// and every firing is counted per site; Stats exposes the counters for
// /statsz and the chaos harness.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error produced by an armed "error" action.
// Layers that surface injected failures wrap it, so tests can assert the
// failure travelled the real propagation path with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// InjectedError is the concrete error returned by an armed "error" action; it
// wraps ErrInjected and names the site that fired.
type InjectedError struct{ Site string }

func (e *InjectedError) Error() string { return fmt.Sprintf("fault: injected error at %s", e.Site) }
func (e *InjectedError) Unwrap() error { return ErrInjected }

// PanicError is the value an armed "panic" action panics with, so recover
// sites can distinguish injected panics (and tests can assert on them).
type PanicError struct{ Site string }

func (e *PanicError) Error() string { return fmt.Sprintf("fault: injected panic at %s", e.Site) }

// actionKind enumerates what an armed site does when it fires.
type actionKind int

const (
	actError actionKind = iota
	actDelay
	actPanic
)

// site is one armed failpoint.
type site struct {
	name  string
	kind  actionKind
	delay time.Duration

	mu    sync.Mutex
	prob  float64 // fire probability per evaluation (1.0 = always)
	max   int64   // max fires (0 = unlimited)
	rng   *rand.Rand
	hits  int64 // evaluations while armed
	fires int64 // times the action ran
}

// SiteStats is a snapshot of one armed site's counters.
type SiteStats struct {
	Hits  int64 `json:"hits"`  // evaluations while armed
	Fires int64 `json:"fires"` // times the action ran
}

// registry is the global armed-site table. enabled is the hot-path gate: it
// is false whenever the table is empty, making Inject a single atomic load in
// production.
var (
	enabled atomic.Bool
	mu      sync.RWMutex
	sites   map[string]*site
)

func init() {
	if spec := os.Getenv("OMEGA_FAILPOINTS"); spec != "" {
		seed := int64(1)
		if s := os.Getenv("OMEGA_FAILPOINTS_SEED"); s != "" {
			if v, err := strconv.ParseInt(s, 10, 64); err == nil {
				seed = v
			}
		}
		if err := Configure(spec, seed); err != nil {
			fmt.Fprintf(os.Stderr, "fault: ignoring OMEGA_FAILPOINTS: %v\n", err)
		}
	}
}

// Enabled reports whether any site is armed. It is the same check Inject
// performs first, exposed for callers that want to skip building arguments.
func Enabled() bool { return enabled.Load() }

// Configure replaces the armed-site table with the given spec (see the
// package comment for the grammar). The seed makes probabilistic schedules
// reproducible: each site draws from its own RNG seeded by seed and the site
// name. An empty spec disarms everything (equivalent to Reset).
func Configure(spec string, seed int64) error {
	parsed := map[string]*site{}
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		s, err := parseEntry(entry, seed)
		if err != nil {
			return err
		}
		parsed[s.name] = s
	}
	mu.Lock()
	sites = parsed
	enabled.Store(len(parsed) > 0)
	mu.Unlock()
	return nil
}

// Reset disarms every site and clears all counters.
func Reset() {
	mu.Lock()
	sites = nil
	enabled.Store(false)
	mu.Unlock()
}

// parseEntry parses one site=action[:param][@prob][#max] entry.
func parseEntry(entry string, seed int64) (*site, error) {
	name, actionSpec, ok := strings.Cut(entry, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" || actionSpec == "" {
		return nil, fmt.Errorf("fault: bad entry %q (want site=action)", entry)
	}
	s := &site{name: name, prob: 1.0}

	if at := strings.IndexByte(actionSpec, '#'); at >= 0 {
		n, err := strconv.ParseInt(actionSpec[at+1:], 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("fault: bad fire limit in %q", entry)
		}
		s.max = n
		actionSpec = actionSpec[:at]
	}
	if at := strings.IndexByte(actionSpec, '@'); at >= 0 {
		p, err := strconv.ParseFloat(actionSpec[at+1:], 64)
		if err != nil || p <= 0 || p > 1 {
			return nil, fmt.Errorf("fault: bad probability in %q (want (0,1])", entry)
		}
		s.prob = p
		actionSpec = actionSpec[:at]
	}

	action, param, _ := strings.Cut(actionSpec, ":")
	switch strings.TrimSpace(action) {
	case "error":
		s.kind = actError
	case "panic":
		s.kind = actPanic
	case "delay":
		d, err := time.ParseDuration(param)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("fault: bad delay in %q (want delay:DURATION)", entry)
		}
		s.kind = actDelay
		s.delay = d
	default:
		return nil, fmt.Errorf("fault: unknown action %q in %q (want error, delay or panic)", action, entry)
	}

	// Per-site deterministic RNG: independent of arming order and of how
	// other sites consume randomness.
	h := fnv.New64a()
	h.Write([]byte(name))
	s.rng = rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	return s, nil
}

// Inject evaluates the named site. When the site is unarmed (or nothing is
// armed at all) it returns nil at the cost of one atomic load. When armed, it
// applies the site's action: returns an *InjectedError, sleeps, or panics
// with a *PanicError.
func Inject(name string) error {
	if !enabled.Load() {
		return nil
	}
	mu.RLock()
	s := sites[name]
	mu.RUnlock()
	if s == nil {
		return nil
	}
	return s.eval()
}

func (s *site) eval() error {
	s.mu.Lock()
	s.hits++
	fire := s.max == 0 || s.fires < s.max
	if fire && s.prob < 1.0 {
		fire = s.rng.Float64() < s.prob
	}
	if fire {
		s.fires++
	}
	kind, delay := s.kind, s.delay
	s.mu.Unlock()
	if !fire {
		return nil
	}
	switch kind {
	case actDelay:
		time.Sleep(delay)
		return nil
	case actPanic:
		panic(&PanicError{Site: s.name})
	default:
		return &InjectedError{Site: s.name}
	}
}

// Stats returns a snapshot of every armed site's counters, keyed by site
// name. Sites disarmed since their last fire are not reported (Configure and
// Reset clear the table).
func Stats() map[string]SiteStats {
	mu.RLock()
	defer mu.RUnlock()
	if len(sites) == 0 {
		return nil
	}
	out := make(map[string]SiteStats, len(sites))
	for name, s := range sites {
		s.mu.Lock()
		out[name] = SiteStats{Hits: s.hits, Fires: s.fires}
		s.mu.Unlock()
	}
	return out
}

// Fires returns how many times the named site's action has run under the
// current configuration (0 when unarmed).
func Fires(name string) int64 {
	mu.RLock()
	s := sites[name]
	mu.RUnlock()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fires
}

// List returns the armed site names in sorted order (for logs and /statsz).
func List() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

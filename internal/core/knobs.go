package core

import (
	"flag"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"time"

	"omega/internal/automaton"
)

// This file is the canonical knob registry: the single place where the
// per-execution knobs — mode, limit, maxdist, maxtuples, backend, hardmem,
// parallel — parse, validate and clamp. Every surface that accepts
// them routes through it: ExecOptions.ApplyParams for HTTP query parameters
// (internal/serve), BindExecFlags for command-line flags (cmd/omega,
// cmd/omega-serve, cmd/omega-bench). Adding a knob means adding one registry
// entry; it then exists on every surface with the same spelling, validation
// and error shape.

// maxParallelism caps the per-execution worker count. Beyond it the merge fan
// and per-shard fixed overheads dominate any conceivable core count; values
// above are clamped, not rejected.
const maxParallelism = 64

// KnobError is a validation failure for one execution knob. Every surface
// (HTTP 400 bodies, CLI errors) reports the same shape, naming the knob.
type KnobError struct {
	Knob   string // canonical knob name (the HTTP parameter spelling)
	Value  string // the rejected input
	Reason string // what a valid value looks like (may be empty)
}

func (e *KnobError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("invalid %s %q (%s)", e.Knob, e.Value, e.Reason)
	}
	return fmt.Sprintf("invalid %s %q", e.Knob, e.Value)
}

// ParseMode parses a mode knob value: exact, approx, relax or flex
// (case-insensitive).
func ParseMode(s string) (automaton.Mode, error) {
	switch strings.ToLower(s) {
	case "exact":
		return automaton.Exact, nil
	case "approx":
		return automaton.Approx, nil
	case "relax":
		return automaton.Relax, nil
	case "flex":
		return automaton.Flex, nil
	}
	return automaton.Exact, &KnobError{Knob: "mode", Value: s, Reason: "want exact, approx, relax or flex"}
}

// ParseTimeout parses the request-level timeout knob (Go duration syntax,
// strictly positive). It maps to a context deadline rather than an
// ExecOptions field, but shares the registry's error shape.
func ParseTimeout(v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, &KnobError{Knob: "timeout", Value: v, Reason: "want a positive Go duration, e.g. 2s or 500ms"}
	}
	return d, nil
}

// knobInt parses a non-negative integer knob bounded by max. The int32-sized
// bounds keep downstream narrowing (ExecOptions.MaxDist) from silently
// wrapping a huge value into a small positive cap.
func knobInt(name, v string, max int64) (int64, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 || n > max {
		return 0, &KnobError{Knob: name, Value: v, Reason: fmt.Sprintf("want an integer in [0, %d]", max)}
	}
	return n, nil
}

// knob is one registry entry: the canonical HTTP parameter name, accepted
// aliases, the command-line flag spelling, shared help text, and the
// validating setter.
type knob struct {
	param   string
	aliases []string
	flag    string
	usage   string
	set     func(eo *ExecOptions, value string) error
}

// knobRegistry is ordered for deterministic application; setters never read
// other fields, so order is cosmetic.
var knobRegistry = []knob{
	{
		param: "mode", flag: "mode",
		usage: "override every conjunct's mode: exact|approx|relax|flex (empty = as written)",
		set: func(eo *ExecOptions, v string) error {
			m, err := ParseMode(v)
			if err != nil {
				return err
			}
			eo.Mode = &m
			return nil
		},
	},
	{
		param: "limit", flag: "limit",
		usage: "maximum number of answers (0 = all)",
		set: func(eo *ExecOptions, v string) error {
			n, err := knobInt("limit", v, math.MaxInt32)
			if err != nil {
				return err
			}
			eo.Limit = int(n)
			return nil
		},
	},
	{
		param: "maxdist", flag: "maxdist",
		usage: "maximum total answer distance (0 = unlimited)",
		set: func(eo *ExecOptions, v string) error {
			n, err := knobInt("maxdist", v, math.MaxInt32)
			if err != nil {
				return err
			}
			eo.MaxDist = int32(n)
			return nil
		},
	},
	{
		param: "maxtuples", flag: "max-tuples",
		usage: "tuple budget, enforced per evaluator (0 = unlimited)",
		set: func(eo *ExecOptions, v string) error {
			n, err := knobInt("maxtuples", v, math.MaxInt32)
			if err != nil {
				return err
			}
			eo.MaxTuples = int(n)
			return nil
		},
	},
	{
		param: "backend", flag: "backend",
		usage: "evaluation engine: auto|ranked|bulk",
		set: func(eo *ExecOptions, v string) error {
			be, err := ParseBackend(v)
			if err != nil {
				return &KnobError{Knob: "backend", Value: v, Reason: "want auto, ranked or bulk"}
			}
			eo.Backend = be
			return nil
		},
	},
	{
		param: "hardmem", flag: "hard-mem",
		usage: "hard memory watermark in bytes: abort with ErrMemBudget (0 = off)",
		set: func(eo *ExecOptions, v string) error {
			n, err := knobInt("hardmem", v, math.MaxInt64)
			if err != nil {
				return err
			}
			eo.HardMemBytes = n
			return nil
		},
	},
	{
		param: "parallel", aliases: []string{"parallelism"}, flag: "parallel",
		usage: "worker count per execution; emission stays identical to serial (0 or 1 = serial, clamped to 64)",
		set: func(eo *ExecOptions, v string) error {
			n, err := knobInt("parallel", v, math.MaxInt32)
			if err != nil {
				return err
			}
			if n > maxParallelism {
				n = maxParallelism
			}
			eo.Parallelism = int(n)
			return nil
		},
	},
}

// ApplyParams applies the knob registry to eo from HTTP query/form
// parameters. Absent or empty parameters leave the corresponding field
// unchanged, so defaults the caller pre-seeded survive; the first present
// spelling among a knob's canonical name and aliases wins. The error for an
// invalid value is a *KnobError naming the knob — the serving layer maps it
// to one HTTP 400 shape.
func (eo *ExecOptions) ApplyParams(params url.Values) error {
	for _, k := range knobRegistry {
		v := params.Get(k.param)
		for _, a := range k.aliases {
			if v != "" {
				break
			}
			v = params.Get(a)
		}
		if v == "" {
			continue
		}
		if err := k.set(eo, v); err != nil {
			return err
		}
	}
	return nil
}

// ExecFlags holds the shared knob flags bound onto a FlagSet by
// BindExecFlags. After flag parsing, Apply routes every value through the
// same per-knob validators as ApplyParams.
type ExecFlags struct {
	vals map[string]*string // canonical param name → raw flag value
}

// BindExecFlags registers the named knobs (canonical param names; all of them
// when names is empty) as string flags on fs, under the registry's flag
// spellings and shared help text. Per-binary defaults come pre-rendered in
// defaults, keyed by param name, and pass through the same validation as any
// other value; an empty default leaves the field as the caller seeded it.
func BindExecFlags(fs *flag.FlagSet, defaults map[string]string, names ...string) *ExecFlags {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	f := &ExecFlags{vals: map[string]*string{}}
	for _, k := range knobRegistry {
		if len(names) > 0 && !want[k.param] {
			continue
		}
		f.vals[k.param] = fs.String(k.flag, defaults[k.param], k.usage)
	}
	return f
}

// Apply validates every bound flag's value onto eo. Empty values leave fields
// unchanged, mirroring absent HTTP parameters.
func (f *ExecFlags) Apply(eo *ExecOptions) error {
	for _, k := range knobRegistry {
		p, ok := f.vals[k.param]
		if !ok || *p == "" {
			continue
		}
		if err := k.set(eo, *p); err != nil {
			return err
		}
	}
	return nil
}

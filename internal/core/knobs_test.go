package core

import (
	"errors"
	"flag"
	"io"
	"math"
	"net/url"
	"reflect"
	"slices"
	"testing"

	"omega/internal/automaton"
)

// knobField reads the ExecOptions field a registry knob sets.
func knobField(eo *ExecOptions, param string) any {
	switch param {
	case "mode":
		return eo.Mode
	case "limit":
		return eo.Limit
	case "maxdist":
		return eo.MaxDist
	case "maxtuples":
		return eo.MaxTuples
	case "backend":
		return eo.Backend
	case "hardmem":
		return eo.HardMemBytes
	}
	panic("no field for knob " + param)
}

// FuzzApplyParams holds the one knob parser to its contract. From up to three
// fuzzed key/value pairs over the registry's names (and three names it does
// not know), ApplyParams either fails with a *KnobError naming a registry
// knob, or leaves every field in its documented range, with knobs absent from
// the parameters keeping their pre-seeded values. Over the registry's names
// alone, the command-line path (BindExecFlags, then Apply) must reach the
// same ExecOptions or the same error.
func FuzzApplyParams(f *testing.F) {
	var names, params []string
	for _, k := range knobRegistry {
		params = append(params, k.param)
		names = append(names, k.param)
	}
	// Not knobs: ignored. The retired parallel knob and its alias keep the
	// indices the seed corpus was written against.
	names = append(names, "parallel", "parallelism", "q")
	f.Fuzz(func(t *testing.T, k1 uint8, v1 string, k2 uint8, v2 string, k3 uint8, v3 string) {
		vals := url.Values{}
		for _, kv := range []struct {
			k uint8
			v string
		}{{k1, v1}, {k2, v2}, {k3, v3}} {
			vals.Add(names[int(kv.k)%len(names)], kv.v)
		}
		relax := automaton.Relax
		seed := ExecOptions{Limit: 7, MaxDist: 3, MaxTuples: 11, Backend: BackendRanked, HardMemBytes: 5, Mode: &relax}
		eo := seed
		err := eo.ApplyParams(vals)
		if err != nil {
			var ke *KnobError
			if !errors.As(err, &ke) || !slices.Contains(params, ke.Knob) {
				t.Fatalf("ApplyParams(%v) = %v, want a *KnobError naming a registry knob", vals, err)
			}
		} else {
			inInt32 := func(n int64) bool { return n >= 0 && n <= math.MaxInt32 }
			if !inInt32(int64(eo.Limit)) || !inInt32(int64(eo.MaxDist)) || !inInt32(int64(eo.MaxTuples)) ||
				eo.HardMemBytes < 0 || eo.Backend > BackendBulk ||
				eo.Mode != nil && *eo.Mode > automaton.Flex {
				t.Fatalf("ApplyParams(%v) left a field out of range: %+v", vals, eo)
			}
			for _, k := range knobRegistry {
				if vals.Get(k.param) == "" && !reflect.DeepEqual(knobField(&eo, k.param), knobField(&seed, k.param)) {
					t.Fatalf("ApplyParams(%v) changed the absent knob %s: %v, seeded %v",
						vals, k.param, knobField(&eo, k.param), knobField(&seed, k.param))
				}
			}
		}

		// The same values as flags: knob names only, each with the value
		// ApplyParams reads, its first.
		canon := url.Values{}
		var args []string
		for _, k := range knobRegistry {
			if v := vals.Get(k.param); v != "" {
				canon.Set(k.param, v)
				args = append(args, "-"+k.flag+"="+v)
			}
		}
		fromParams := seed
		perr := fromParams.ApplyParams(canon)
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags := BindExecFlags(fs, nil)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("flags %q: %v", args, err)
		}
		fromFlags := seed
		ferr := flags.Apply(&fromFlags)
		if (perr == nil) != (ferr == nil) || perr != nil && perr.Error() != ferr.Error() {
			t.Fatalf("%v: ApplyParams error %v, flags error %v", canon, perr, ferr)
		}
		if perr == nil && !reflect.DeepEqual(fromParams, fromFlags) {
			t.Fatalf("%v: ApplyParams gives %+v, flags %+v", canon, fromParams, fromFlags)
		}
	})
}

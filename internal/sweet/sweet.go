// Package sweet is the end-to-end benchmark harness behind
// cmd/slapsweet, in the mold of the upstream Go benchmarks repo's
// sweet/bent drivers: a table of named scenarios, each of which boots a
// real slapd (in process, on a real TCP listener, with the same debug
// listener the -debugaddr flag binds) or drives the core directly,
// measures under a fixed protocol, and emits canonical
// benchfmt.Results. The scenario table, metric names, and scale rules
// are all plain data — unit-testable without a network — and the
// canonical names are the join keys `slapsweet -diff` uses against the
// committed BENCH trajectory (see internal/benchfmt and
// docs/BENCHMARKING.md).
package sweet

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"time"

	"slapcc/internal/benchfmt"
	"slapcc/internal/obs"
)

// Config scales and points a run.
type Config struct {
	// Short shrinks every scenario to a seconds-long smoke (the go
	// test mode); full scale is the CI/measurement mode.
	Short bool
	// Count is the number of samples per core measurement (default 3;
	// ≥ 3 lets a later diff run the significance test instead of the
	// point heuristic).
	Count int
	// ProfileDir, when non-empty, receives CPU and heap profiles per
	// service scenario, fetched from the booted slapd's debug listener
	// exactly as an operator would from -debugaddr.
	ProfileDir string
	// Seed feeds every generated frame.
	Seed uint64
	// Log receives one line per scenario; nil discards.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Count <= 0 {
		c.Count = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// scale picks full when the run is full-size, short in smoke mode.
func (c Config) scale(full, short int) int {
	if c.Short {
		return short
	}
	return full
}

// Scenario is one named benchmark: a protocol plus the canonical
// metrics it emits.
type Scenario struct {
	// Name is the scenario's invocation name and the first segment of
	// every metric it emits (the "cost" scenario also emits the
	// derived engine/ ratio).
	Name string
	// Kind is "service" (boots a slapd and drives it over HTTP) or
	// "core" (drives the engines in process, sweeping GOMAXPROCS).
	Kind string
	// Desc is the one-line inventory entry.
	Desc string
	run  func(cfg Config) ([]benchfmt.Result, error)
}

// Scenarios returns the scenario table in presentation order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "steady", Kind: "service", Desc: "steady-state closed loop: mixed 64-256px frames, raw+png, concurrency 4", run: runSteady},
		{Name: "burst", Kind: "service", Desc: "burst: concurrency 4x the workers against a short queue, retries absorbing 429s", run: runBurst},
		{Name: "overload", Kind: "service", Desc: "overload: no-retry burst against workers=1 queue=1, measures shedding", run: runOverload},
		{Name: "strip", Kind: "service", Desc: "strip-mined frames (array-width 128) through slapd", run: runStrip},
		{Name: "batch", Kind: "service", Desc: "multipart batch endpoint throughput", run: runBatch},
		{Name: "cost", Kind: "service", Desc: "cost=host vs cost=bitserial on identical requests; emits the host/bitserial ratio", run: runCost},
		{Name: "engine", Kind: "core", Desc: "simulator (unit and bitserial cost) vs host engine on one frame", run: runEngine},
		{Name: "stream", Kind: "core", Desc: "LabelStream/LabelerPool frame-streaming scaling across worker counts", run: runStream},
		{Name: "stripworkers", Kind: "core", Desc: "LabelLarge StripWorkers fan-out across worker counts", run: runStripWorkers},
		{Name: "reuse", Kind: "core", Desc: "reused Labeler steady-state throughput and allocations", run: runReuse},
	}
}

// Select returns the scenarios whose names match the anchored regular
// expression pattern ("" selects all), in table order.
func Select(pattern string) ([]Scenario, error) {
	all := Scenarios()
	if pattern == "" {
		return all, nil
	}
	re, err := regexp.Compile("^(" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("sweet: bad scenario pattern %q: %w", pattern, err)
	}
	var out []Scenario
	for _, s := range all {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		names := make([]string, len(all))
		for i, s := range all {
			names[i] = s.Name
		}
		sort.Strings(names)
		return nil, fmt.Errorf("sweet: pattern %q matches no scenario (have %v)", pattern, names)
	}
	return out, nil
}

// Run executes the selected scenarios and assembles the typed BENCH
// file, stamped with the runner's provenance.
func Run(pattern string, cfg Config) (*benchfmt.File, error) {
	cfg = cfg.withDefaults()
	scens, err := Select(pattern)
	if err != nil {
		return nil, err
	}
	rt := obs.Runtime()
	f := &benchfmt.File{
		Schema: benchfmt.SchemaV1,
		Date:   time.Now().UTC().Format("2006-01-02"),
		Runner: benchfmt.Runner{
			CPU: rt.CPU, Cores: rt.Cores, GOMAXPROCS: rt.GOMAXPROCS, GoVersion: rt.GoVersion,
		},
		Protocol: fmt.Sprintf("cmd/slapsweet: in-process slapd on a TCP listener, closed-loop client; core scenarios with %d samples per point, worker sweeps at GOMAXPROCS = workers; short=%v",
			cfg.Count, cfg.Short),
	}
	for _, s := range scens {
		t0 := time.Now()
		fmt.Fprintf(cfg.Log, "sweet: running %s (%s) — %s\n", s.Name, s.Kind, s.Desc)
		results, err := s.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("sweet: scenario %s: %w", s.Name, err)
		}
		f.Results = append(f.Results, results...)
		fmt.Fprintf(cfg.Log, "sweet: %s done in %.1fs (%d metrics)\n", s.Name, time.Since(t0).Seconds(), len(results))
	}
	f.Sort()
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("sweet: assembled BENCH file invalid: %w", err)
	}
	return f, nil
}

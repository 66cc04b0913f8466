// Command perfbench is the repository's end-to-end benchmark. It starts
// the real slapd (and, for the cluster workload, slapfront) binaries as
// child processes on loopback, drives one named workload from this
// single generator process, open-loop at a fixed rate and closed-loop
// for capacity, checks every answer
// against a sequential reference, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency at the
// nominal rate, the rate the closed loop sustains, daemon CPU per
// request, peak RSS, set-up time). With -trace 1 a separate pass reads
// the daemons' Server-Timing headers and /metrics and times the same
// corpus through each layer's public functions in process. See
// README.md for the glossary and the per-workload predictions.
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload host-summary --seed 1 --seconds 26 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one named, united number of a result.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // printed beside the value, e.g. a sample count
}

// result is what one run prints.
type result struct {
	Correct    bool
	Tally      tally
	Metrics    []metric
	Mismatch   string // the first wrong answer, when Correct is false
	Provenance provenance
}

type provenance struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Trace      int       `json:"trace"`
	Seconds    int       `json:"seconds"`
	CPU        string    `json:"cpu"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	Nominal    float64   `json:"nominal_rps"`
	Roofline   *roofline `json:"roofline,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "corpus seed")
		seconds = fs.Int("seconds", 26, "measured seconds (set-up, warm-up and corpus generation come on top)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced pass")
		binDir  = fs.String("bin", ".bench_build/bin", "directory holding the built slapd and slapfront")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: float64(*seconds), binDir: *binDir, log: stderr}
	var res *result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Provenance = b.provenance(*trace)
	res.print(stdout)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: wrong answer:", res.Mismatch)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

func (b *bench) provenance(trace int) provenance {
	return provenance{
		Workload:   b.w.Name,
		Seed:       b.seed,
		Trace:      trace,
		Seconds:    int(b.seconds),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		Nominal:    b.w.Nominal,
		Roofline:   b.roof,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the human-readable table, the provenance line, and the
// JSON result as the last line.
func (r *result) print(w io.Writer) {
	sorted := append([]metric(nil), r.Metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		line := fmt.Sprintf("%-28s %14.6g %s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (refused %d, mismatched %d)\n",
		r.Tally.Attempted, r.Tally.misses(), r.Tally.Refused, r.Tally.Mismatched)
	if p, err := json.Marshal(r.Provenance); err == nil {
		fmt.Fprintf(w, "provenance %s\n", p)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Tally.Attempted, r.Tally.misses(), map[string]val{}}
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity; a latency every miss pushed past all
			// limits reads as the largest float instead.
			v = math.MaxFloat64
		}
		out.Metrics[m.Name] = val{v, m.Unit}
	}
	line, _ := json.Marshal(out) // plain numbers and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", line)
}

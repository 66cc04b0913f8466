package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkJSONRecordsWorkloads holds BENCHMARK.json's workload
// records to the inventory: every workload, in order, with its purpose,
// families, sizes and nominal rate.
func TestBenchmarkJSONRecordsWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the inventory %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := s.Workloads[i]
		if got.Name != w.Name || got.Why != w.describe() {
			t.Errorf("workload %d: BENCHMARK.json has\n  %s: %s\nwant\n  %s: %s", i, got.Name, got.Why, w.Name, w.describe())
		}
	}
}

// TestSmokeEveryWorkload runs every workload briefly in both modes
// against freshly built daemons and checks that every metric
// BENCHMARK.json names prints, in the table and the JSON line, with
// its unit, and nothing else does.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "slapcc/cmd/slapd", "slapcc/cmd/slapfront")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building daemons: %v\n%s", err, out)
	}
	s := loadSpec(t)
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "2", "--trace", []string{"0", "1"}[trace], "--bin", bin}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !tablePrints(lines, m.Name, m.Unit) {
					t.Errorf("%s trace %d: no table line for %s in %s", w.Name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

func tablePrints(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestMain lets the test binary serve as xproc-bridge's child process,
// exactly as the perfbench binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(xprocChild())
	}
	os.Exit(m.Run())
}

// contract is the part of the repository's BENCHMARK.json the
// benchmark must match.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMetrics fails unless got holds exactly the metrics of want,
// with their units.
func checkMetrics(t *testing.T, got map[string]jsonMetric, want []contractMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
		}
	}
}

func TestContractWorkloadsExist(t *testing.T) {
	for _, w := range loadContract(t).Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
}

// runArgs runs perfbench in-process and decodes its last line.
func runArgs(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v\n%s", lines[len(lines)-1], err, errOut.String())
	}
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("exit %d, result %+v\n%s%s", code, r, out.String(), errOut.String())
	}
	return r, out.String()
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	c := loadContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if raceEnabled && w.name == "gauss-solve" {
				t.Skip("a solve takes a third of a second under the race detector: too few for a tail in one second")
			}
			r, out := runArgs(t, "--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", "0")
			checkMetrics(t, r.Metrics, c.EndToEnd)
			for _, name := range []string{"latency_p99_us", "cold_latency_p99_us"} {
				if !strings.Contains(out, "  "+name+" ") {
					t.Errorf("output does not print %s", name)
				}
			}
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload, probes and ladders")
	}
	dir := t.TempDir()
	r, out := runArgs(t, "--workload", "gauss-solve", "--seed", "7", "--seconds", "1", "--trace", "1", "--spans-dir", dir)
	checkMetrics(t, r.Metrics, loadContract(t).PerLayer)
	for _, name := range []string{"mpf.send_ns", "mpf.waitviews_ns", "mpf.bridge_down_us", "msg.build_ns", "apps.gauss_seq_s"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a measured time", name, r.Metrics[name].Value)
		}
	}
	for _, line := range []string{"tracing overhead on gauss-solve", "span gauss-solve gauss.solve", "mpf.send_ns"} {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q", line)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("spans dir holds %v (%v), want one file", entries, err)
	}
}

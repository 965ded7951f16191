package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, at a tiny size,
// and checks that every run passes its checks and emits exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	spans := t.TempDir()
	for _, w := range bf.Workloads {
		for _, mode := range []string{"0", "1"} {
			w, mode := w.Name, mode
			t.Run(w+"/trace="+mode, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w, "--seed", "7", "--seconds", "2", "--trace", mode,
					"--spans-dir", spans}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for name, unit := range want[mode] {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[mode][name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if mode == "1" {
					if _, err := os.Stat(filepath.Join(spans, w+".spans")); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
					if !strings.Contains(out.String(), "layer sum:") {
						t.Errorf("traced run printed no layer-sum table")
					}
				}
			})
		}
	}
}

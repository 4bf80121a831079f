package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleResult() result {
	return result{
		Fingerprint: fingerprint{GoMaxProcs: 2, NumCPU: 2, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0",
			BuildTags: "simd", KernelImpl: "avx2", Commit: "abc", SourceDigest: "0123"},
		Workload: "fullbatch-products-p4", Seeds: deriveSeeds(3), Trace: true, Seconds: 10,
		Correct: true, Attempted: 31, Failed: 0,
		Tail:    tail{Value: 350.25, Percentile: 65.5, Samples: 29, Beyond: 10},
		Checks:  []check{{Name: "traced_replay_bit_identical", OK: true, Detail: "2 common calls"}},
		Metrics: map[string]metricValue{"step_ms_p50": {Value: 336.364954, Unit: "ms"}, "sim_step_s": {Value: 0.0017103789029127665, Unit: "s"}},
	}
}

func TestResultRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "r.json")
	want := sampleResult()
	if err := writeResult(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if _, err := readResult(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("reading a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(bad); err == nil {
		t.Fatal("reading truncated JSON succeeded")
	}
}

func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	a := sampleResult()
	b := sampleResult()
	b.Fingerprint.Commit, b.Fingerprint.SourceDigest = "def", "4567"
	b.Metrics = map[string]metricValue{"step_ms_p50": {Value: 302.7284586, Unit: "ms"}, "sim_step_s": {Value: 0.0017103789029127665, Unit: "s"}}
	table, err := compareResults(a, b)
	if err != nil {
		t.Fatalf("different commits on one host must compare: %v", err)
	}
	if !strings.Contains(table, "step_ms_p50") || !strings.Contains(table, "x0.9000") {
		t.Errorf("comparison table lacks the step ratio:\n%s", table)
	}
	for _, mutate := range []func(*fingerprint){
		func(f *fingerprint) { f.KernelImpl = "scalar" },
		func(f *fingerprint) { f.GoMaxProcs = 8 },
		func(f *fingerprint) { f.NumCPU = 8 },
		func(f *fingerprint) { f.BuildTags = "" },
		func(f *fingerprint) { f.GoVersion = "go1.22.0" },
		func(f *fingerprint) { f.GOARCH = "arm64" },
	} {
		c := sampleResult()
		mutate(&c.Fingerprint)
		if _, err := compareResults(a, c); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
			t.Errorf("fingerprint %+v compared against %+v: err %v", c.Fingerprint, a.Fingerprint, err)
		}
	}
	d := sampleResult()
	d.Workload = "sampled-products-p4"
	if _, err := compareResults(a, d); err == nil {
		t.Error("results of different workloads compared")
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, program %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := f.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := f.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: file %+v, program %+v", i, m, d)
		}
	}
}

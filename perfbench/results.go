package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"mggcn/internal/kernel"
)

// commit and sourceDigest are set at link time by run.sh: the checkout's
// git commit ("unknown" outside a git work tree) and a SHA-256 over the
// module's Go sources, which names the code even without git.
var (
	commit       = "unknown"
	sourceDigest = "unknown"
)

// fingerprint identifies the host and build a result was measured on.
type fingerprint struct {
	GoMaxProcs   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"numcpu"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	GoVersion    string `json:"go_version"`
	BuildTags    string `json:"build_tags"`
	KernelImpl   string `json:"kernel_impl"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		BuildTags: buildTags, KernelImpl: kernel.Impl(), Commit: commit, SourceDigest: sourceDigest,
	}
}

// mismatch lists the host and build fields on which f and o differ. The
// commit and source digest are left out: comparing two versions of the
// code is what results are compared for.
func (f fingerprint) mismatch(o fingerprint) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s %v != %v", name, a, b))
		}
	}
	add("gomaxprocs", f.GoMaxProcs, o.GoMaxProcs)
	add("numcpu", f.NumCPU, o.NumCPU)
	add("goos", f.GOOS, o.GOOS)
	add("goarch", f.GOARCH, o.GOARCH)
	add("go_version", f.GoVersion, o.GoVersion)
	add("build_tags", f.BuildTags, o.BuildTags)
	add("kernel_impl", f.KernelImpl, o.KernelImpl)
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's record, written to the results directory.
type result struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Workload    string                 `json:"workload"`
	Seeds       seeds                  `json:"seeds"`
	Trace       bool                   `json:"trace"`
	Seconds     int                    `json:"seconds"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Tail        tail                   `json:"step_ms_tail"`
	Checks      []check                `json:"checks"`
	Metrics     map[string]metricValue `json:"metrics"`
}

func writeResult(path string, res result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResult(path string) (result, error) {
	var res result
	buf, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(buf, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareResults renders b's metrics against a's as ratios. It refuses
// results from different workloads, or whose host or build fingerprints
// differ.
func compareResults(a, b result) (string, error) {
	if a.Workload != b.Workload {
		return "", fmt.Errorf("workloads differ: %s vs %s", a.Workload, b.Workload)
	}
	if m := a.Fingerprint.mismatch(b.Fingerprint); len(m) > 0 {
		return "", fmt.Errorf("fingerprints differ: %s", strings.Join(m, "; "))
	}
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		if _, ok := b.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s (seed %d) -> %s (seed %d)\n", a.Workload,
		a.Fingerprint.Commit, a.Seeds.Workload, b.Fingerprint.Commit, b.Seeds.Workload)
	for _, name := range names {
		x, y := a.Metrics[name], b.Metrics[name]
		ratio := "-"
		if x.Value != 0 {
			ratio = fmt.Sprintf("%.4f", y.Value/x.Value)
		}
		fmt.Fprintf(&sb, "%-32s %16.6g %16.6g %-6s x%s\n", name, x.Value, y.Value, x.Unit, ratio)
	}
	return sb.String(), nil
}

// maxRSS returns the process's peak resident set size in bytes.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

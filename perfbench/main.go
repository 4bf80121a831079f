// Command perfbench is the repository benchmark. It drives the trainers
// from outside, through the public entry points of each internal package,
// on one named workload per run, checks that training is correct, and
// prints every metric by name with its unit.
//
// Each run is a closed loop: one process, one trainer, and the next step
// starts when the previous one returns. GOMAXPROCS is left at its default.
// A run sets up several times (graph generation plus trainer
// construction, median reported), times untraced steps for --seconds, then
// replays a fresh trainer of the same seed serially under a span recorder
// (sim.GraphExecObserver): briefly with --trace 0, to check the two
// replays agree bit for bit; for --seconds with --trace 1, to report the
// per-layer breakdown. On fullbatch-products-p4 a recovery probe then runs
// core.TrainElastic under a seeded fault plan and checks the planned
// recovery. End-to-end metrics come from the untraced steps only.
//
// Usage, from the repository root (run.sh builds with -tags simd first):
//
//	bash perfbench/run.sh --workload fullbatch-products-p4 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose checks fail exits 1.
// Every run also writes its full record (fingerprint, seeds, checks, all
// metrics) under .bench_build/results and its spans under .bench_build/trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mggcn/internal/gen"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base.json> <new.json>")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b result
		if b, err = readResult(args[1]); err == nil {
			var table string
			if table, err = compareResults(a, b); err == nil {
				fmt.Print(table)
				return 0
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

func benchMain() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed: graph, permutation, weight, sampler and fault seeds derive from it")
		seconds = flag.Int("seconds", 30, "seconds of timed steps")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics of a traced run")
		outDir  = flag.String("out", ".bench_build", "directory for the results record and the trace")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	r := &run{
		w: w, seeds: deriveSeeds(*seed), budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, spec: gen.Catalog()[w.dataset], metrics: map[string]float64{},
	}
	fp := hostFingerprint()
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%d\nfingerprint %+v\nseeds %+v\n",
		w.name, *seed, *seconds, *trace, fp, r.seeds)
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	correct := r.failed == 0
	for _, c := range r.checks {
		correct = correct && c.OK
	}
	if !correct && r.failed == 0 {
		r.failed = r.attempted // a run-level check failed: no step's output stands
	}
	r.metrics["failed_step_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))

	all := map[string]metricValue{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		all[d.Name] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	res := result{
		Fingerprint: fp, Workload: w.name, Seeds: r.seeds, Trace: r.traced, Seconds: *seconds,
		Correct: correct, Attempted: r.attempted, Failed: r.failed, Tail: r.tail, Checks: r.checks, Metrics: all,
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if err := writeResult(filepath.Join(*outDir, "results", stem+".json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing results:", err)
		return 1
	}
	if err := writeSpans(filepath.Join(*outDir, "trace", stem+".json"), r.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return 1
	}

	for _, c := range r.checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "check %s %-40s %s\n", status, c.Name, c.Detail)
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
		printPredictions(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "step_ms_tail is p%.1f of %d step samples, %d beyond it\n", r.tail.Percentile, r.tail.Samples, r.tail.Beyond)
	out := map[string]metricValue{}
	for _, d := range defs {
		out[d.Name] = all[d.Name]
		fmt.Fprintf(os.Stderr, "%-32s %18.6f %s\n", d.Name, all[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

package main

import (
	"fmt"
	"io"

	"mggcn/internal/sim"
)

// metricDef names one reported metric. End-to-end metrics carry the bound
// BENCHMARK.json fixes; per-layer metrics carry the prediction: how the
// value is measured, the end-to-end metric it should move, and the
// workload where it does most of its work.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	How    string
	Moves  string
	On     string
}

// endToEnd are the metrics a user of the trainers sees, from untraced steps.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "step_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "step_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "samples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "sim_step_s", Unit: "s", Better: "lower", Bound: 0.05},
	{Name: "sim_speedup", Unit: "x", Better: "higher", Bound: 0.05},
	{Name: "peak_device_bytes", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_step", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "max_rss_bytes", Unit: "B", Better: "lower", Bound: 0.25},
}

const (
	fbProducts = "fullbatch-products-p4"
	sampled    = "sampled-products-p4"

	// The recovery probe's metrics would move an elastic run's throughput;
	// no workload times one (see README.md).
	recoveryMoves = "samples_per_s (elastic)"
)

func spmmRows() []metricDef {
	var out []metricDef
	for _, ph := range []string{"fwd", "bwd"} {
		for l := 0; l < maxLayers; l++ {
			out = append(out, metricDef{Name: fmt.Sprintf("sparse.spmm.%s%d_ms", ph, l), Unit: "ms", Better: "lower",
				How: "SpMM task self time per step, phase and layer parsed from the label", Moves: "step_ms_p50", On: fbProducts})
		}
	}
	return out
}

func gemmRows() []metricDef {
	var out []metricDef
	for _, ph := range []string{"fwd", "bwd"} {
		for l := 0; l < maxLayers; l++ {
			out = append(out, metricDef{Name: fmt.Sprintf("tensor.gemm.%s%d_ms", ph, l), Unit: "ms", Better: "lower",
				How: "GeMM task self time per step, phase and layer parsed from the label", Moves: "step_ms_p50", On: sampled + ", " + fbProducts})
		}
	}
	return out
}

func simBusyRows() []metricDef {
	var out []metricDef
	for _, k := range sim.Kinds() {
		out = append(out, metricDef{Name: "sim.busy." + kindShort[k] + "_s", Unit: "s", Better: "lower",
			How: "Schedule.KindBusy per step, summed over devices", Moves: "sim_step_s", On: fbProducts + ", " + sampled})
	}
	return out
}

// perLayer are the metrics of single layers, from the traced run (times,
// counts) and from the untraced run where noted.
var perLayer = concat(
	[]metricDef{
		{Name: "gen.load_s", Unit: "s", Better: "lower", How: "gen.Generate call, median of the set-ups", Moves: "setup_s", On: fbProducts},
		{Name: "core.new_trainer_s", Unit: "s", Better: "lower", How: "trainer constructor call, median of the set-ups", Moves: "setup_s", On: fbProducts},
		{Name: "core.record_ms", Unit: "ms", Better: "lower", How: "step entry to BeginGraph, per step", Moves: "step_ms_p50", On: fbProducts},
		{Name: "sim.replay_ms", Unit: "ms", Better: "lower", How: "BeginGraph to the last task's After, per step", Moves: "step_ms_p50", On: fbProducts},
		{Name: "core.finish_ms", Unit: "ms", Better: "lower", How: "last After to step return: loss fold, finite check, schedule", Moves: "step_ms_p50", On: fbProducts},
		{Name: "sim.tasks", Unit: "count", Better: "lower", How: "recorded tasks per step", Moves: "step_ms_p50", On: fbProducts},
		{Name: "comm.calls", Unit: "count", Better: "lower", How: "recorded collectives per step", Moves: "step_ms_p50", On: fbProducts},
		{Name: "sparse.spmm_ms", Unit: "ms", Better: "lower", How: "SpMM task self time per step", Moves: "step_ms_p50", On: fbProducts},
	},
	spmmRows(),
	[]metricDef{{Name: "tensor.gemm_ms", Unit: "ms", Better: "lower", How: "GeMM task self time per step", Moves: "step_ms_p50", On: sampled + ", " + fbProducts}},
	gemmRows(),
	[]metricDef{
		{Name: "nn.activation_ms", Unit: "ms", Better: "lower", How: "activation task self time per step", Moves: "step_ms_p50", On: fbProducts},
		{Name: "nn.loss_ms", Unit: "ms", Better: "lower", How: "loss task self time per step", Moves: "step_ms_p50", On: fbProducts},
		{Name: "nn.adam_ms", Unit: "ms", Better: "lower", How: "Adam task self time per step", Moves: "step_ms_p50", On: fbProducts},
		{Name: "comm.collective_ms", Unit: "ms", Better: "lower", How: "collective closure self time per step", Moves: "step_ms_p50", On: fbProducts},
		{Name: "comm.bcast_words", Unit: "words", Better: "lower", How: "comm.Meter broadcast words per step", Moves: "sim_step_s", On: fbProducts},
		{Name: "comm.allreduce_words", Unit: "words", Better: "lower", How: "comm.Meter all-reduce words per step", Moves: "sim_step_s", On: fbProducts},
	},
	simBusyRows(),
	[]metricDef{
		{Name: "sample.sample_ms", Unit: "ms", Better: "lower", How: "sample task self time per step", Moves: "step_ms_p50, alloc_bytes_per_step", On: sampled},
		{Name: "sample.extract_ms", Unit: "ms", Better: "lower", How: "extract task self time per step", Moves: "sim_step_s", On: sampled},
		{Name: "sample.gather_hit_words", Unit: "words", Better: "higher", How: "comm.Meter cache-hit gather words per step", Moves: "sim_step_s", On: sampled},
		{Name: "sample.gather_miss_words", Unit: "words", Better: "lower", How: "comm.Meter host-miss gather words per step", Moves: "sim_step_s", On: sampled},
		{Name: "sample.cache_hit_ratio", Unit: "ratio", Better: "higher", How: "hit words / (hit + miss) words", Moves: "sim_step_s", On: sampled},
		{Name: "sample.overlap_ratio", Unit: "ratio", Better: "higher", How: "sampler/trainer stream overlap of the schedule (untraced)", Moves: "sim_step_s", On: sampled},
		{Name: "go.gc_cycles_per_step", Unit: "count", Better: "lower", How: "runtime.MemStats NumGC per step (untraced)", Moves: "step_ms_tail", On: sampled},
		{Name: "go.gc_pause_ms_per_step", Unit: "ms", Better: "lower", How: "runtime.MemStats PauseTotalNs per step (untraced)", Moves: "step_ms_tail", On: sampled},
		{Name: "core.recoveries", Unit: "count", Better: "lower", How: "ElasticResult.Events of the recovery probe", Moves: recoveryMoves, On: fbProducts},
		{Name: "core.final_p", Unit: "count", Better: "higher", How: "ElasticResult.FinalP of the recovery probe", Moves: recoveryMoves, On: fbProducts},
		{Name: "fault.crashes", Unit: "count", Better: "lower", How: "fault.Injector.Stats of the recovery probe", Moves: recoveryMoves, On: fbProducts},
		{Name: "fault.transient_failures", Unit: "count", Better: "lower", How: "fault.Injector.Stats of the recovery probe", Moves: recoveryMoves, On: fbProducts},
		{Name: "core.recovery_ms", Unit: "ms", Better: "lower", How: "failed graph's last task to the next epoch graph's BeginGraph, survivor resync included", Moves: recoveryMoves, On: fbProducts},
		{Name: "trace.overhead_ms", Unit: "ms", Better: "lower", How: "traced step_ms_p50 minus untraced, serial replay included", Moves: "(none: tracing only)", On: fbProducts},
		{Name: "final_loss", Unit: "loss", Better: "lower", How: "loss of the last untraced step; spreads across seeds, so unbounded", Moves: "(quality, not speed)", On: fbProducts + ", " + sampled},
		{Name: "failed_step_ratio", Unit: "ratio", Better: "lower", How: "steps that errored or failed a check / steps attempted; 0 when correct", Moves: "(correctness)", On: "all"},
	},
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// printPredictions writes the prediction table: which end-to-end metric
// each layer metric should move, and on which workload.
func printPredictions(w io.Writer) {
	fmt.Fprintf(w, "%-32s %-36s %-28s %s\n", "per-layer metric", "moves", "on", "measured as")
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-32s %-36s %-28s %s\n", d.Name, d.Moves, d.On, d.How)
	}
}

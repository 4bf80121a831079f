package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mggcn/internal/comm"
	"mggcn/internal/core"
	"mggcn/internal/fault"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/sim"
)

// workload is one named benchmark input. Every workload runs the DGX-A100
// machine model with the paper's §4 optimizations on (core.DefaultConfig /
// core.DefaultSampledConfig), hidden width 128.
type workload struct {
	name    string
	why     string
	dataset string // catalog entry whose shape (n, degree, features, classes, Scale) is regenerated
	p       int
	run     func(*run) error
	// recovery adds the recovery probe to a full-batch run.
	recovery bool
}

const hidden = 128

// setupRepeats is how many times a run generates a graph and builds the
// trainer; setup_s is the median. Each set-up generates a graph of its own
// seed: BTER's generation time depends on the seed (its first affinity
// block costs O(d_max²)), so the median over three seeds varies less from
// one workload seed to the next than one graph's time would.
const setupRepeats = 3

// traceCheckSteps is how many training steps the traced replay of an
// untraced (--trace 0) run covers at least: enough for the loss check.
const traceCheckSteps = 2

// probeEpochs is the effective epoch count of the recovery probe's
// TrainElastic call; the planned crash (After 100 matching tasks) lands in
// epoch 7.
const probeEpochs = 10

var workloads = []workload{
	{
		name: "fullbatch-products-p4", dataset: "products", p: 4, run: runFullBatch, recovery: true,
		why: "paper's headline path: full-batch 1D-row GCN on the products-shaped graph at 4 GPUs, heavy in SpMM and broadcasts",
	},
	{
		name: "sampled-products-p4", dataset: "products", p: 4, run: runSampled,
		why: "sampled pipeline: GeMM/SpMM on rectangular frontier blocks, sample and extract stages, gradient all-reduce only",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seeds are the per-purpose seeds derived from the workload seed.
type seeds struct {
	Workload uint64 `json:"workload"`
	// Graphs are the set-ups' graph seeds; the run trains on the last.
	Graphs  [setupRepeats]uint64 `json:"graphs"`
	Perm    uint64               `json:"perm"`
	Weights int64                `json:"weights"`
	Sampler int64                `json:"sampler"`
	Fault   int64                `json:"fault"`
}

// splitmix64 is the SplitMix64 output function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func deriveSeeds(seed uint64) seeds {
	at := func(i uint64) uint64 { return splitmix64(seed ^ splitmix64(i)) }
	positive := func(i uint64) int64 { return int64(at(i)>>2) | 1 }
	return seeds{Workload: seed, Graphs: [setupRepeats]uint64{at(6), at(7), at(1)},
		Perm: at(2), Weights: positive(3), Sampler: positive(4), Fault: positive(5)}
}

// run carries one benchmark run's inputs and what it measured.
type run struct {
	w       workload
	seeds   seeds
	budget  time.Duration
	traced  bool
	spec    gen.DatasetSpec
	metrics map[string]float64
	checks  []check
	tail    tail
	spans   []span

	attempted, failed int
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// generate regenerates the catalog dataset's shape with seed in place of
// the catalog seed.
func (r *run) generate(seed uint64) *graph.Graph {
	s := r.spec
	return gen.Generate(s.Name, gen.DefaultBTER(s.GenN(), s.AvgDegree, seed), s.FeatDim, s.Classes, false)
}

// setup generates a graph and builds a trainer once per set-up graph seed,
// recording the median of each part and of their sum, and returns the
// last pair.
func setup[T any](r *run, build func(*graph.Graph) (T, error)) (*graph.Graph, T, error) {
	var g *graph.Graph
	var t T
	var genS, buildS, totalS []float64
	for _, seed := range r.seeds.Graphs {
		// Drop the previous pair first, so one graph at a time is live.
		var zero T
		g, t = nil, zero
		runtime.GC()
		t0 := time.Now()
		g = r.generate(seed)
		t1 := time.Now()
		var err error
		if t, err = build(g); err != nil {
			return nil, zero, err
		}
		t2 := time.Now()
		genS = append(genS, t1.Sub(t0).Seconds())
		buildS = append(buildS, t2.Sub(t1).Seconds())
		totalS = append(totalS, t2.Sub(t0).Seconds())
	}
	r.metrics["gen.load_s"] = median(genS)
	r.metrics["core.new_trainer_s"] = median(buildS)
	r.metrics["setup_s"] = median(totalS)
	return g, t, nil
}

func trainCount(g *graph.Graph) int {
	n := 0
	for _, t := range g.TrainMask {
		if t {
			n++
		}
	}
	return n
}

// phantomView shares g's adjacency without features: a trainer on it
// records and schedules the same task graph but replays no arithmetic.
func phantomView(g *graph.Graph) *graph.Graph {
	return &graph.Graph{Name: g.Name, Adj: g.Adj, FeatDim: g.FeatDim, Classes: g.Classes}
}

func (r *run) fullBatchConfig(p int) core.Config {
	cfg := core.DefaultConfig(sim.DGXA100(), p, r.spec.Scale)
	cfg.Hidden = hidden
	cfg.Seed = r.seeds.Weights
	cfg.PermSeed = r.seeds.Perm
	return cfg
}

// simAtP1 returns the simulated epoch seconds of a phantom P=1 trainer on
// g — simulated time does not depend on the arithmetic.
func (r *run) simAtP1(g *graph.Graph) (float64, error) {
	tr, err := core.NewTrainer(phantomView(g), r.fullBatchConfig(1))
	if err != nil {
		return 0, err
	}
	s, err := tr.RunEpoch()
	if err != nil {
		return 0, err
	}
	return s.EpochSeconds, nil
}

// stepOut is what one closed-loop call (a full-batch epoch or a sampled
// RunSteps segment) reports.
type stepOut struct {
	steps     int     // training steps the call covered
	work      float64 // the same in full steps of P batches (a sampled epoch's last step may be short)
	vertices  int     // training vertices it trained
	loss      float64
	simS      float64
	kindBusy  map[sim.Kind]float64
	tasks     int
	commCalls int
	overlap   float64
}

func outOf(steps int, work float64, vertices int, loss, simS float64, busy map[sim.Kind]float64, tasks []*sim.Task, overlap float64) stepOut {
	o := stepOut{steps: steps, work: work, vertices: vertices, loss: loss, simS: simS, kindBusy: busy, tasks: len(tasks), overlap: overlap}
	for _, t := range tasks {
		if t.Kind == sim.KindComm {
			o.commCalls++
		}
	}
	return o
}

type stepper interface {
	step() (stepOut, error)
}

type fullBatchStepper struct {
	tr    *core.Trainer
	train int
}

func (f *fullBatchStepper) step() (stepOut, error) {
	s, err := f.tr.RunEpoch()
	if err != nil {
		return stepOut{}, err
	}
	return outOf(1, 1, f.train, s.Loss, s.EpochSeconds, s.KindBusy, s.Tasks, 0), nil
}

// sampledStepper runs RunSteps segments: warm steps on the first call
// (enough for the sampled memory form), then k steps per call.
type sampledStepper struct {
	tr      *core.SampledTrainer
	warm, k int
	calls   int
}

func (s *sampledStepper) step() (stepOut, error) {
	n := s.k
	if s.calls == 0 {
		n = s.warm
	}
	s.calls++
	_, first := s.tr.Cursor()
	st, err := s.tr.RunSteps(n)
	if err != nil {
		return stepOut{}, err
	}
	p, batch, total := s.tr.Cfg.P, s.tr.Cfg.Batch, s.tr.TrainVertexCount()
	vertices := 0
	for b := first; b < first+st.Batches; b++ {
		vertices += min(batch, total-b*batch)
	}
	return outOf((st.Batches+p-1)/p, float64(st.Batches)/float64(p), vertices, st.Loss, st.EpochSeconds, st.KindBusy, st.Tasks, st.OverlapRatio), nil
}

// loop is one closed-loop pass: a warm-up call, then timed calls.
type loop struct {
	losses   []float64 // every call's loss, warm-up first
	outs     []stepOut // timed calls
	stepMs   []float64 // one sample per training step of the timed calls
	allocs   []float64 // heap bytes allocated per full step, one per timed call
	work     float64   // full training steps of the timed calls
	vertices int
	wallS    float64
	attempts int // training steps attempted, warm-up included
	failures int // training steps that errored or produced a non-finite loss
	err      error

	gcCycles  uint32
	gcPauseNs uint64
}

// runLoop calls s once untimed, runs afterWarm (if set), then keeps
// calling s — the next call starting when the previous returns — while
// another call as long as the last one still ends within budget, up to
// maxCalls timed calls (maxCalls < 0: no limit). Unless maxCalls is 0, at
// least one call is timed. With rec set every call is bracketed as one
// traced step.
func runLoop(s stepper, rec *recorder, budget time.Duration, maxCalls int, afterWarm func()) loop {
	var l loop
	call := func() (stepOut, time.Duration, bool) {
		if rec != nil {
			rec.beginStep()
		}
		t0 := time.Now()
		o, err := s.step()
		d := time.Since(t0)
		if rec != nil {
			rec.endStep(o.work, err != nil)
		}
		if err != nil {
			l.err = err
			l.attempts++
			l.failures++
			return o, d, false
		}
		l.attempts += o.steps
		l.losses = append(l.losses, o.loss)
		if math.IsNaN(o.loss) || math.IsInf(o.loss, 0) {
			l.failures += o.steps
			return o, d, false
		}
		return o, d, true
	}
	if _, _, ok := call(); !ok {
		return l
	}
	if afterWarm != nil {
		afterWarm()
	}
	runtime.GC()
	var m0, before, after runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var last time.Duration
	for (maxCalls < 0 || len(l.outs) < maxCalls) && (len(l.outs) == 0 || time.Since(start)+last <= budget) {
		runtime.ReadMemStats(&before)
		o, d, ok := call()
		if !ok {
			break
		}
		runtime.ReadMemStats(&after)
		l.allocs = append(l.allocs, float64(after.TotalAlloc-before.TotalAlloc)/o.work)
		last = d
		l.outs = append(l.outs, o)
		l.work += o.work
		l.vertices += o.vertices
		per := float64(d) / 1e6 / o.work
		for i := 0; i < o.steps; i++ {
			l.stepMs = append(l.stepMs, per)
		}
	}
	l.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	l.gcCycles = after.NumGC - m0.NumGC
	l.gcPauseNs = after.PauseTotalNs - m0.PauseTotalNs
	return l
}

// recordLoop folds an untraced loop into the end-to-end metrics and the
// per-step counts measured there (GC), and runs the loss checks on it.
func (r *run) recordLoop(l loop, simP1 float64) {
	r.attempted += l.attempts
	r.failed += l.failures
	r.checkLoop("untraced", l)
	steps := max(l.work, 1)
	r.tail = tailOf(l.stepMs)
	r.metrics["step_ms_p50"] = median(l.stepMs)
	r.metrics["step_ms_tail"] = r.tail.Value
	if l.wallS > 0 {
		r.metrics["samples_per_s"] = float64(l.vertices) / l.wallS
	}
	r.metrics["alloc_bytes_per_step"] = median(l.allocs)
	r.metrics["go.gc_cycles_per_step"] = float64(l.gcCycles) / steps
	r.metrics["go.gc_pause_ms_per_step"] = float64(l.gcPauseNs) / 1e6 / steps
	if len(l.losses) > 0 {
		r.metrics["final_loss"] = l.losses[len(l.losses)-1]
	}
	var simStep, tasks, comms, overlap []float64
	for _, o := range l.outs {
		n := o.work
		simStep = append(simStep, o.simS/n)
		tasks = append(tasks, float64(o.tasks)/n)
		comms = append(comms, float64(o.commCalls)/n)
		overlap = append(overlap, o.overlap)
	}
	r.metrics["sim_step_s"] = median(simStep)
	if s := r.metrics["sim_step_s"]; s > 0 {
		r.metrics["sim_speedup"] = simP1 / s
	}
	r.metrics["sim.tasks"] = median(tasks)
	r.metrics["comm.calls"] = median(comms)
	r.metrics["sample.overlap_ratio"] = median(overlap)
	for _, k := range sim.Kinds() {
		var busy []float64
		for _, o := range l.outs {
			busy = append(busy, o.kindBusy[k]/o.work)
		}
		r.metrics["sim.busy."+kindShort[k]+"_s"] = median(busy)
	}
}

// checkLoop requires an error-free loop with finite losses and a last loss
// below the first.
func (r *run) checkLoop(name string, l loop) {
	r.check(name+".no_step_error", l.err == nil, "%v", l.err)
	r.check(name+".finite_loss", l.failures == 0 || l.err != nil, "%d of %d steps non-finite", l.failures, l.attempts)
	if len(l.losses) >= 2 {
		first, last := l.losses[0], l.losses[len(l.losses)-1]
		r.check(name+".loss_decreases", last < first, "first %.6g last %.6g over %d calls", first, last, len(l.losses))
	}
}

// checkSameLosses requires the traced (serial replay) losses to repeat the
// untraced (parallel replay) ones bit for bit over their common prefix.
func (r *run) checkSameLosses(untraced, traced []float64) {
	n := min(len(untraced), len(traced))
	ok := n >= 1
	detail := fmt.Sprintf("%d common calls", n)
	if i := firstDiff(untraced, traced); i >= 0 {
		ok = false
		detail = fmt.Sprintf("call %d: untraced %v traced %v", i, untraced[i], traced[i])
	}
	r.check("traced_replay_bit_identical", ok, "%s", detail)
	if !ok {
		r.failed += n
	}
}

// firstDiff returns the first index of a and b's common prefix whose
// values differ in any bit, or -1.
func firstDiff(a, b []float64) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// tracedLoop runs the traced replay of a fresh trainer: the warm-up call
// under the allocation meter too, then timed calls (for the run budget
// when traced, else until traceCheckSteps steps ran, given the warm-up
// covers warmSteps). The comm meter restarts after the
// warm-up, so its per-step counts cover the timed calls.
func (r *run) tracedLoop(s stepper, warmSteps int, rec *recorder, meter *sim.AllocMeter, cm *comm.Meter) loop {
	rec.setInner(meter)
	budget, calls := r.budget, -1
	if !r.traced {
		budget, calls = time.Hour, max(traceCheckSteps-warmSteps, 0)
	}
	l := runLoop(s, rec, budget, calls, func() { rec.setInner(nil); cm.Reset() })
	r.attempted += l.attempts
	r.failed += l.failures
	r.check("traced.no_step_error", l.err == nil, "%v", l.err)
	r.spans = rec.snapshot()
	return l
}

// recordTraced adds the traced loop's per-layer times and comm counts.
func (r *run) recordTraced(l loop, meter *comm.Meter) {
	for name, v := range perStepTimes(r.spans) {
		r.metrics[name] = v
	}
	if r.metrics["step_ms_p50"] > 0 {
		r.metrics["trace.overhead_ms"] = median(l.stepMs) - r.metrics["step_ms_p50"]
	}
	steps := max(l.work, 1)
	r.metrics["comm.bcast_words"] = float64(meter.Words(sim.CollBroadcast)) / steps
	r.metrics["comm.allreduce_words"] = float64(meter.Words(sim.CollAllReduce)) / steps
	hit, miss := meter.Words(sim.CollGatherHit), meter.Words(sim.CollGatherMiss)
	r.metrics["sample.gather_hit_words"] = float64(hit) / steps
	r.metrics["sample.gather_miss_words"] = float64(miss) / steps
	if hit+miss > 0 {
		r.metrics["sample.cache_hit_ratio"] = float64(hit) / float64(hit+miss)
	}
}

// certifyMemory evaluates every device's memory form (form returns the
// footprint and its environment): the worst certified resident bytes, and
// a non-empty detail when a device's resident form differs from its pool
// bytes or — given a meter that observed one of the trainer's steps — its
// slab form from the measured slab high-water.
func certifyMemory(p int, form func(d int) (*memcheck.Footprint, map[string]int64, error), pool func(d int) int64, meter *sim.AllocMeter) (peak int64, detail string, err error) {
	for d := 0; d < p; d++ {
		fp, env, err := form(d)
		if err != nil {
			return 0, "", err
		}
		if fp.Uncertified != "" {
			return 0, "", fmt.Errorf("d%d uncertified: %s", d, fp.Uncertified)
		}
		resident, err := fp.Resident.Eval(env)
		if err != nil {
			return 0, "", err
		}
		if resident != pool(d) {
			return 0, fmt.Sprintf("d%d resident form %d B != pool %d B", d, resident, pool(d)), nil
		}
		if meter != nil {
			slab, err := fp.SlabBytes.Eval(env)
			if err != nil {
				return 0, "", err
			}
			if got := meter.SlabPeakBytes()[fmt.Sprintf("d%d", d)]; got != slab {
				return 0, fmt.Sprintf("d%d slab form %d B != measured high-water %d B", d, slab, got), nil
			}
		}
		peak = max(peak, resident)
	}
	return peak, "", nil
}

func fullBatchMemory(tr *core.Trainer, meter *sim.AllocMeter) (int64, string, error) {
	return certifyMemory(tr.Machine.P, func(d int) (*memcheck.Footprint, map[string]int64, error) {
		fp, err := memcheck.PeakForm("1d-row", memcheck.Model{Dims: tr.Dims, P: tr.Machine.P, Device: d, Overlap: tr.Cfg.Overlap})
		return fp, memcheck.DeviceEnv(int64(tr.DeviceRows(d)), int64(tr.MaxTileRows()), tr.AdjacencyBytes(d), tr.Dims), err
	}, tr.PoolUsed, meter)
}

// sampledMemory certifies a sampled trainer whose metered replay ran steps
// steps per device.
func sampledMemory(tr *core.SampledTrainer, steps int, meter *sim.AllocMeter) (int64, string, error) {
	caps := tr.FrontierCapacities()
	return certifyMemory(tr.Machine.P, func(d int) (*memcheck.Footprint, map[string]int64, error) {
		fp, err := memcheck.PeakForm("sampled", memcheck.Model{Dims: tr.Dims, P: tr.Machine.P, Device: d,
			Caps: caps, Depth: tr.Depth(), Steps: steps})
		return fp, memcheck.SampledEnv(caps, tr.Caches()[d].Slab.Rows, tr.Dims), err
	}, tr.PoolUsed, meter)
}

func (r *run) checkMemory(which string, detail string, err error) {
	if err != nil {
		detail = err.Error()
	}
	r.check("memory."+which, detail == "", "%s", detail)
}

func runFullBatch(r *run) error {
	cfg := r.fullBatchConfig(r.w.p)
	g, tr, err := setup(r, func(g *graph.Graph) (*core.Trainer, error) { return core.NewTrainer(g, cfg) })
	if err != nil {
		return err
	}
	simP1, err := r.simAtP1(g)
	if err != nil {
		return err
	}
	train := trainCount(g)
	untraced := runLoop(&fullBatchStepper{tr: tr, train: train}, nil, r.budget, -1, nil)
	r.recordLoop(untraced, simP1)
	r.metrics["max_rss_bytes"] = maxRSS()
	peak, detail, err := fullBatchMemory(tr, nil)
	r.checkMemory("resident_equals_pool", detail, err)
	r.metrics["peak_device_bytes"] = float64(peak)

	rec, meter, cm := newRecorder(), sim.NewAllocMeter(), comm.NewMeter()
	tcfg := cfg
	tcfg.ExecObserver, tcfg.CommMeter = rec, cm
	ttr, err := core.NewTrainer(g, tcfg)
	if err != nil {
		return err
	}
	traced := r.tracedLoop(&fullBatchStepper{tr: ttr, train: train}, 1, rec, meter, cm)
	_, detail, err = fullBatchMemory(ttr, meter)
	r.checkMemory("slab_equals_meter", detail, err)
	r.checkSameLosses(untraced.losses, traced.losses)
	r.recordTraced(traced, cm)
	if r.w.recovery {
		r.recoveryProbe(g)
	}
	return nil
}

// recoveryProbe runs core.TrainElastic for probeEpochs epochs under a
// seeded fault plan — device P-1 crashes on its 101st backward-pass task,
// and every collective fails once before comm.DefaultRetryPolicy retries
// it — and checks the planned outcome: no abort, exactly one device-lost
// recovery, P-1 survivors, one crash, at least one retried transient
// failure, and finite, falling losses. It runs after the timed loops, so
// it leaves the end-to-end metrics alone.
func (r *run) recoveryProbe(g *graph.Graph) {
	cfg := r.fullBatchConfig(r.w.p)
	cfg.Retry = comm.DefaultRetryPolicy()
	inj := fault.New(fault.Plan{
		Seed:  r.seeds.Fault,
		Crash: &fault.CrashSpec{Device: r.w.p - 1, OnLabel: "bwd", After: 100},
		// Every 1: the injector selects collectives by a hash of the seed
		// and the record-time task ID, the same ones every epoch, and an
		// epoch on products has about a dozen. With Every 4 about one seed
		// in 25 selects none, and the probe would retry nothing.
		Transient: &fault.TransientSpec{Every: 1, Failures: 1},
	})
	clock := newRecoveryClock()
	cfg.Fault, cfg.ExecObserver = inj, clock
	res, err := core.TrainElastic(g, cfg, probeEpochs)
	gaps := clock.recoveries()
	fs := inj.Stats()
	r.attempted += probeEpochs
	ok := err == nil && res != nil && len(res.Stats) == probeEpochs && len(res.Events) == 1 &&
		res.Events[0].Kind == "device-lost" && res.FinalP == r.w.p-1 &&
		fs.Crashes == 1 && fs.TransientFailures > 0 && len(gaps) == 1
	detail := fmt.Sprintf("err=%v", err)
	if res != nil {
		detail = fmt.Sprintf("err=%v events=%v finalP=%d epochs=%d crashes=%d transient=%d gaps=%d",
			err, res.Events, res.FinalP, len(res.Stats), fs.Crashes, fs.TransientFailures, len(gaps))
	}
	r.check("recovery.planned_recovery", ok, "%s", detail)
	if !ok {
		r.failed += probeEpochs
		return
	}
	l := loop{attempts: probeEpochs}
	for _, s := range res.Stats {
		l.losses = append(l.losses, s.Loss)
		if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
			l.failures++
		}
	}
	r.failed += l.failures
	r.checkLoop("recovery", l)
	r.metrics["core.recoveries"] = float64(len(res.Events))
	r.metrics["core.final_p"] = float64(res.FinalP)
	r.metrics["fault.crashes"] = float64(fs.Crashes)
	r.metrics["fault.transient_failures"] = float64(fs.TransientFailures)
	r.metrics["core.recovery_ms"] = float64(gaps[0]) / 1e6
}

func (r *run) sampledConfig(p int) core.SampledConfig {
	cfg := core.DefaultSampledConfig(sim.DGXA100(), p, r.spec.Scale)
	cfg.Hidden = hidden
	cfg.Seed = r.seeds.Sampler
	return cfg
}

// newSampledStepper times segments of Depth()+1 steps (so the
// double-buffered handoff reaches steady state inside each) after a
// Depth()+2-step warm-up, the fewest the sampled memory form certifies.
func newSampledStepper(tr *core.SampledTrainer) *sampledStepper {
	return &sampledStepper{tr: tr, warm: tr.Depth() + 2, k: tr.Depth() + 1}
}

func runSampled(r *run) error {
	cfg := r.sampledConfig(r.w.p)
	g, tr, err := setup(r, func(g *graph.Graph) (*core.SampledTrainer, error) { return core.NewSampledTrainer(g, cfg) })
	if err != nil {
		return err
	}
	// Simulated seconds per batch at P=1 over the warm-up's batches: a
	// P=1 step trains one batch, a P-device step trains P.
	one, err := core.NewSampledTrainer(g, r.sampledConfig(1))
	if err != nil {
		return err
	}
	oneOut, err := newSampledStepper(one).step()
	if err != nil {
		return err
	}
	simP1 := oneOut.simS / oneOut.work * float64(r.w.p)

	untraced := runLoop(newSampledStepper(tr), nil, r.budget, -1, nil)
	r.recordLoop(untraced, simP1)
	r.metrics["max_rss_bytes"] = maxRSS()
	warmSteps := newSampledStepper(tr).warm
	peak, detail, err := sampledMemory(tr, warmSteps, nil)
	r.checkMemory("resident_equals_pool", detail, err)
	r.metrics["peak_device_bytes"] = float64(peak)

	rec, meter, cm := newRecorder(), sim.NewAllocMeter(), comm.NewMeter()
	tcfg := cfg
	tcfg.ExecObserver, tcfg.CommMeter = rec, cm
	ttr, err := core.NewSampledTrainer(g, tcfg)
	if err != nil {
		return err
	}
	traced := r.tracedLoop(newSampledStepper(ttr), warmSteps, rec, meter, cm)
	_, detail, err = sampledMemory(ttr, warmSteps, meter)
	r.checkMemory("slab_equals_meter", detail, err)
	r.checkSameLosses(untraced.losses, traced.losses)
	r.recordTraced(traced, cm)
	return nil
}

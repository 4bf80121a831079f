package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mggcn/internal/sim"
)

// span is one traced interval. Spans of one step share Step; a task span's
// parent is its step's replay span, and the phase spans' parent is the
// step span.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a step span
	Step    int     `json:"step"`
	Work    float64 `json:"work,omitempty"` // full training steps a step span covers
	Name    string  `json:"name"`           // step | record | replay | finish | task
	Kind    string  `json:"kind,omitempty"`
	Label   string  `json:"label,omitempty"`
	Device  int     `json:"device"`
	Stream  string  `json:"stream,omitempty"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	Failed  bool    `json:"failed,omitempty"` // a step whose call returned an error
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.EndNs - s.StartNs - covered(s.StartNs, s.EndNs, children[s.ID])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// taskLabel is the structure the trainers encode in task labels:
// "[s<step>/]<fwd|bwd><layer>/<op>" for per-layer work,
// "[s<step>/]allreduce<layer>" for the sampled gradient all-reduce, and
// "[s<step>/]<op>" for loss, adam, sample, extract and zerograd.
type taskLabel struct {
	Step  int    // sampled step index, -1 when absent
	Phase string // "fwd", "bwd", or "" for work outside a GCN layer
	Layer int    // GCN layer, -1 when absent
	Op    string
}

func parseLabel(label string) taskLabel {
	out := taskLabel{Step: -1, Layer: -1}
	parts := strings.Split(label, "/")
	if n, ok := numSuffix(parts[0], "s"); ok && len(parts) > 1 {
		out.Step = n
		parts = parts[1:]
	}
	switch head := parts[0]; {
	case strings.HasPrefix(head, "fwd") || strings.HasPrefix(head, "bwd"):
		if n, ok := numSuffix(head, head[:3]); ok {
			out.Phase, out.Layer = head[:3], n
			parts = parts[1:]
		}
	case strings.HasPrefix(head, "allreduce"):
		// The sampled trainer's per-layer gradient all-reduce belongs to
		// that layer's backward pass.
		if n, ok := numSuffix(head, "allreduce"); ok {
			out.Phase, out.Layer, out.Op = "bwd", n, "allreduce"
			return out
		}
	}
	out.Op = strings.Join(parts, "/")
	return out
}

// numSuffix parses s as prefix followed by a non-negative decimal.
func numSuffix(s, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok || rest == "" {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// recorder is the benchmark's sim.GraphExecObserver. It keeps spans in
// memory: the benchmark brackets each step with beginStep/endStep, the
// executor's BeginGraph/Before/After calls split the step into record
// (step entry to the first BeginGraph), replay (to the last task's After)
// and finish (to step return), and every replayed task gets a span under
// the replay span.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	nextID int
	// inner, when set, receives every observer call too — the allocation
	// meter of the memory check. Its time falls outside the task spans.
	inner sim.GraphExecObserver

	step      int   // id of the latest step
	stepID    int   // span ID of the open step, -1 when none is open
	stepStart int64 // times since origin, in ns
	firstBeg  int64 // first BeginGraph of the open step, -1 before it
	lastAfter int64
	started   map[int]int64
}

var _ sim.GraphExecObserver = (*recorder)(nil)

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), step: -1, stepID: -1, started: map[int]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// beginStep opens a step span at the caller's step entry.
func (r *recorder) beginStep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.step++
	r.stepID = r.nextID
	r.nextID += 4 // step, record, replay, finish
	r.stepStart = r.now()
	r.firstBeg, r.lastAfter = -1, r.stepStart
}

// endStep closes the open step, which covered work full training steps,
// and emits its span and its three phase spans.
func (r *recorder) endStep(work float64, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.now()
	beg := r.firstBeg
	if beg < 0 {
		beg, r.lastAfter = end, end // no graph replayed: the step is all record
	}
	r.spans = append(r.spans,
		span{ID: r.stepID, Parent: -1, Step: r.step, Work: work, Name: "step", Device: -1, StartNs: r.stepStart, EndNs: end, Failed: failed},
		span{ID: r.stepID + 1, Parent: r.stepID, Step: r.step, Name: "record", Device: -1, StartNs: r.stepStart, EndNs: beg},
		span{ID: r.stepID + 2, Parent: r.stepID, Step: r.step, Name: "replay", Device: -1, StartNs: beg, EndNs: r.lastAfter},
		span{ID: r.stepID + 3, Parent: r.stepID, Step: r.step, Name: "finish", Device: -1, StartNs: r.lastAfter, EndNs: end})
	r.stepID = -1
}

// BeginGraph implements sim.GraphExecObserver.
func (r *recorder) BeginGraph(g *sim.Graph, start, end int) {
	r.mu.Lock()
	if r.firstBeg < 0 {
		r.firstBeg = r.now()
	}
	inner := r.inner
	r.mu.Unlock()
	if inner != nil {
		inner.BeginGraph(g, start, end)
	}
}

// Before implements sim.ExecObserver. The forwarded observer runs before
// the task span starts.
func (r *recorder) Before(t *sim.Task) {
	r.mu.Lock()
	inner := r.inner
	r.mu.Unlock()
	if inner != nil {
		inner.Before(t)
	}
	r.mu.Lock()
	r.started[t.ID] = r.now()
	r.mu.Unlock()
}

// After implements sim.ExecObserver. The forwarded observer runs after the
// task span ends.
func (r *recorder) After(t *sim.Task) {
	r.mu.Lock()
	end := r.now()
	dev := -1
	if len(t.Devices) > 0 {
		dev = t.Devices[0]
	}
	r.spans = append(r.spans, span{ID: r.nextID, Parent: r.stepID + 2, Step: r.step, Name: "task",
		Kind: t.Kind.String(), Label: t.Label, Device: dev, Stream: t.Stream.String(),
		StartNs: r.started[t.ID], EndNs: end})
	r.nextID++
	delete(r.started, t.ID)
	r.lastAfter = end
	inner := r.inner
	r.mu.Unlock()
	if inner != nil {
		inner.After(t)
	}
}

// setInner swaps the forwarded observer between steps.
func (r *recorder) setInner(o sim.GraphExecObserver) {
	r.mu.Lock()
	r.inner = o
	r.mu.Unlock()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// recoveryClock is the sim.GraphExecObserver of the recovery probe, whose
// epoch loop core.TrainElastic owns. A graph fails when some of its bound
// tasks never reach After; the clock records the gap from that graph's
// last After to the BeginGraph of the next graph that is not the survivor
// resync (labels "resync/..."), so the resync counts as recovery.
type recoveryClock struct {
	mu          sync.Mutex
	origin      time.Time
	bound       int // bound tasks of the latest graph
	afters      int // of those, tasks that reached After
	lastAfter   int64
	pendingFail int64 // last-After time of a failed graph, -1 when none
	gapsNs      []int64
}

var _ sim.GraphExecObserver = (*recoveryClock)(nil)

func newRecoveryClock() *recoveryClock {
	return &recoveryClock{origin: time.Now(), pendingFail: -1}
}

// BeginGraph implements sim.GraphExecObserver.
func (c *recoveryClock) BeginGraph(g *sim.Graph, start, end int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := int64(time.Since(c.origin))
	if c.afters < c.bound {
		c.pendingFail = c.lastAfter
	}
	tasks := g.Tasks[start:end]
	if c.pendingFail >= 0 && !resyncGraph(tasks) {
		c.gapsNs = append(c.gapsNs, now-c.pendingFail)
		c.pendingFail = -1
	}
	c.bound, c.afters = 0, 0
	for _, t := range tasks {
		if t.Exec != nil {
			c.bound++
		}
	}
}

// Before implements sim.ExecObserver.
func (c *recoveryClock) Before(*sim.Task) {}

// After implements sim.ExecObserver; the executor calls it for failed
// tasks too.
func (c *recoveryClock) After(*sim.Task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.afters++
	c.lastAfter = int64(time.Since(c.origin))
}

// recoveries returns the recorded recovery gaps.
func (c *recoveryClock) recoveries() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.gapsNs...)
}

// resyncGraph reports whether tasks are the elastic survivor resync.
func resyncGraph(tasks []*sim.Task) bool {
	for _, t := range tasks {
		if !strings.HasPrefix(t.Label, "resync/") {
			return false
		}
	}
	return len(tasks) > 0
}

// writeSpans writes the spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// kindShort names each task kind in metric names.
var kindShort = map[sim.Kind]string{
	sim.KindSpMM: "spmm", sim.KindGeMM: "gemm", sim.KindActivation: "activation", sim.KindLoss: "loss",
	sim.KindAdam: "adam", sim.KindComm: "comm", sim.KindSample: "sample", sim.KindExtract: "extract",
}

// kindMetric maps a task span's kind to its per-layer metric stem.
var kindMetric = map[string]string{
	sim.KindSpMM.String():       "sparse.spmm",
	sim.KindGeMM.String():       "tensor.gemm",
	sim.KindActivation.String(): "nn.activation",
	sim.KindLoss.String():       "nn.loss",
	sim.KindAdam.String():       "nn.adam",
	sim.KindComm.String():       "comm.collective",
	sim.KindSample.String():     "sample.sample",
	sim.KindExtract.String():    "sample.extract",
}

// layerRows are the kinds broken down further by phase and GCN layer.
var layerRows = map[string]bool{"sparse.spmm": true, "tensor.gemm": true}

const maxLayers = 3

// perStepTimes folds the spans of every step but the first (the warm-up
// call, which also ran under the allocation meter) into per-step
// milliseconds: phase spans (core.record_ms, sim.replay_ms,
// core.finish_ms) and task self times by kind and, for SpMM and GeMM, by
// phase and layer. Each metric is the median over step spans of its total
// divided by the training steps the span covered.
func perStepTimes(spans []span) map[string]float64 {
	self := selfTimes(spans)
	type acc struct {
		work float64
		ms   map[string]float64
	}
	bySpan := map[int]*acc{}
	var order []int
	for _, s := range spans {
		if s.Name == "step" && s.Step > 0 && !s.Failed {
			bySpan[s.Step] = &acc{work: s.Work, ms: map[string]float64{}}
			order = append(order, s.Step)
		}
	}
	for _, s := range spans {
		a := bySpan[s.Step]
		if a == nil {
			continue
		}
		ms := float64(self[s.ID]) / 1e6
		switch s.Name {
		case "record", "finish":
			a.ms["core."+s.Name+"_ms"] += ms
		case "replay":
			a.ms["sim.replay_ms"] += float64(s.EndNs-s.StartNs) / 1e6
		case "task":
			stem, ok := kindMetric[s.Kind]
			if !ok {
				continue
			}
			a.ms[stem+"_ms"] += ms
			if lb := parseLabel(s.Label); layerRows[stem] && lb.Phase != "" && lb.Layer < maxLayers {
				a.ms[fmt.Sprintf("%s.%s%d_ms", stem, lb.Phase, lb.Layer)] += ms
			}
		}
	}
	out := map[string]float64{}
	for _, name := range traceTimeMetrics() {
		vals := make([]float64, 0, len(order))
		for _, st := range order {
			a := bySpan[st]
			vals = append(vals, a.ms[name]/a.work)
		}
		out[name] = median(vals)
	}
	return out
}

// traceTimeMetrics lists every per-step time perStepTimes reports.
func traceTimeMetrics() []string {
	names := []string{"core.record_ms", "sim.replay_ms", "core.finish_ms"}
	for _, stem := range []string{"sparse.spmm", "tensor.gemm", "nn.activation", "nn.loss",
		"nn.adam", "comm.collective", "sample.sample", "sample.extract"} {
		names = append(names, stem+"_ms")
		if layerRows[stem] {
			for _, ph := range []string{"fwd", "bwd"} {
				for l := 0; l < maxLayers; l++ {
					names = append(names, fmt.Sprintf("%s.%s%d_ms", stem, ph, l))
				}
			}
		}
	}
	return names
}

package main

import (
	"errors"
	"testing"
	"time"

	"mggcn/internal/sim"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		// Overlapping children count once; a child running past its
		// parent counts only inside it.
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, StartNs: 20, EndNs: 40},
		{ID: 3, Parent: 0, StartNs: 90, EndNs: 120},
		{ID: 4, Parent: 2, StartNs: 25, EndNs: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 30 - 10, 1: 20, 2: 10, 3: 30, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestParseLabel(t *testing.T) {
	cases := []struct {
		label string
		want  taskLabel
	}{
		{"fwd1/spmm", taskLabel{Step: -1, Phase: "fwd", Layer: 1, Op: "spmm"}},
		{"fwd0/spmm/bcast", taskLabel{Step: -1, Phase: "fwd", Layer: 0, Op: "spmm/bcast"}},
		{"s3/bwd2/wgrad", taskLabel{Step: 3, Phase: "bwd", Layer: 2, Op: "wgrad"}},
		{"bwd1/allreduce", taskLabel{Step: -1, Phase: "bwd", Layer: 1, Op: "allreduce"}},
		{"s12/allreduce2", taskLabel{Step: 12, Phase: "bwd", Layer: 2, Op: "allreduce"}},
		{"s0/sample", taskLabel{Step: 0, Layer: -1, Op: "sample"}},
		{"s4/fwd1/relu", taskLabel{Step: 4, Phase: "fwd", Layer: 1, Op: "relu"}},
		{"loss", taskLabel{Step: -1, Layer: -1, Op: "loss"}},
		{"adam", taskLabel{Step: -1, Layer: -1, Op: "adam"}},
		{"resync/w0", taskLabel{Step: -1, Layer: -1, Op: "resync/w0"}},
		{"spmm", taskLabel{Step: -1, Layer: -1, Op: "spmm"}},
		{"fwdx/gemm", taskLabel{Step: -1, Layer: -1, Op: "fwdx/gemm"}},
	}
	for _, c := range cases {
		if got := parseLabel(c.label); got != c.want {
			t.Errorf("parseLabel(%q) = %+v, want %+v", c.label, got, c.want)
		}
	}
}

// graphOf records one single-device task per label, each bound to fn.
func graphOf(fn func() error, labels ...string) *sim.Graph {
	g := sim.NewGraph(sim.DGXA100(), 1)
	prev := -1
	for _, l := range labels {
		var deps []int
		if prev >= 0 {
			deps = append(deps, prev)
		}
		prev = g.AddCompute(0, sim.KindSpMM, l, -1, 1e-3, false, deps...)
		g.BindE(prev, fn)
	}
	return g
}

func ok() error { return nil }

func TestRecorderStepPhases(t *testing.T) {
	rec := newRecorder()
	for i := 0; i < 2; i++ {
		g := graphOf(ok, "fwd0/spmm", "bwd1/spmm")
		g.Observer = rec
		rec.beginStep()
		if err := g.Execute(1); err != nil {
			t.Fatal(err)
		}
		rec.endStep(2, false)
	}
	spans := rec.snapshot()
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	if byName["step"] != 2 || byName["record"] != 2 || byName["replay"] != 2 || byName["finish"] != 2 || byName["task"] != 4 {
		t.Fatalf("span counts %v", byName)
	}
	ids := map[int]span{}
	for _, s := range spans {
		ids[s.ID] = s
	}
	for _, s := range spans {
		switch s.Name {
		case "task":
			if p := ids[s.Parent]; p.Name != "replay" || p.Step != s.Step {
				t.Errorf("task %q parent %+v", s.Label, p)
			}
		case "record", "replay", "finish":
			if p := ids[s.Parent]; p.Name != "step" || p.Step != s.Step || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("%s span %+v outside its step %+v", s.Name, s, p)
			}
		}
	}
	times := perStepTimes(spans)
	if times["sparse.spmm_ms"] <= 0 || times["sparse.spmm.fwd0_ms"] <= 0 || times["sparse.spmm.bwd1_ms"] <= 0 {
		t.Errorf("per-step SpMM times %v", times)
	}
	if times["tensor.gemm_ms"] != 0 || times["sparse.spmm.fwd1_ms"] != 0 {
		t.Errorf("times for work that never ran: %v", times)
	}
}

func TestRecoveryClock(t *testing.T) {
	clock := newRecoveryClock()
	fail := errors.New("device lost")
	run := func(g *sim.Graph) error {
		g.Observer = clock
		return g.Execute(1)
	}
	if err := run(graphOf(ok, "fwd0/spmm")); err != nil {
		t.Fatal(err)
	}
	if got := clock.recoveries(); len(got) != 0 {
		t.Fatalf("recovery %v before any failure", got)
	}
	if err := run(graphOf(func() error { return fail }, "fwd0/spmm", "bwd0/spmm")); !errors.Is(err, fail) {
		t.Fatalf("failing graph returned %v", err)
	}
	resyncStart := time.Now()
	if err := run(graphOf(func() error { time.Sleep(2 * time.Millisecond); return nil }, "resync/w0", "resync/m0")); err != nil {
		t.Fatal(err)
	}
	resync := time.Since(resyncStart)
	if got := clock.recoveries(); len(got) != 0 {
		t.Fatalf("the resync graph ended the recovery: %v", got)
	}
	if err := run(graphOf(ok, "fwd0/spmm")); err != nil {
		t.Fatal(err)
	}
	if err := run(graphOf(ok, "fwd0/spmm")); err != nil {
		t.Fatal(err)
	}
	got := clock.recoveries()
	if len(got) != 1 {
		t.Fatalf("recoveries %v, want one", got)
	}
	if time.Duration(got[0]) < 4*time.Millisecond || time.Duration(got[0]) > resync+time.Second {
		t.Errorf("recovery %v does not cover the %v resync", time.Duration(got[0]), resync)
	}
}

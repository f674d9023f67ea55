package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
)

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 9

// reportBytes is a rendered report: the text and the JSON export, the two
// outputs every correctness gate compares.
type reportBytes struct {
	text string
	json []byte
}

func render(r *analysis.Report) (reportBytes, error) {
	js, err := r.JSON()
	if err != nil {
		return reportBytes{}, err
	}
	return reportBytes{text: r.Render(), json: js}, nil
}

func (a reportBytes) equal(b reportBytes) bool {
	return a.text == b.text && bytes.Equal(a.json, b.json)
}

// measureSetup runs the workload's set-up setupRuns times (once in a traced
// run) and records the median as setup_s and the median generator time as
// campus.generate_s. fn returns the set-up time and the campus.Generate
// share of it; the last set-up's state is the one the run uses. fn drops the
// previous set-up's state before it starts, and a forced collection before
// each set-up clears it, so every set-up starts from the same heap and none
// pays for another's garbage.
func measureSetup(opts options, res *result, fn func() (setup, gen time.Duration, err error)) error {
	n := setupRuns
	if opts.trace {
		n = 1
	}
	var setups, gens []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		s, g, err := fn()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.Seconds())
		gens = append(gens, g.Seconds())
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["campus.generate_s"] = median(gens)
	res.notef("set-up: %d runs, median %.3f s (campus.Generate %.3f s)", n, median(setups), median(gens))
	return nil
}

// generate times campus.Generate for the run's seed.
func generate(opts options) (*campus.Scenario, time.Duration, error) {
	t0 := now()
	s, err := campus.Generate(scenarioConfig(opts.seed, opts.sizes.Scale))
	return s, time.Since(t0), err
}

// prepareInputs writes the workload's inputs from the scenario and reads
// them once, outside every timed section.
func prepareInputs(opts options, s *campus.Scenario) (*inputSet, error) {
	in, err := writeInputs(opts.workload, s, opts.sizes, filepath.Join(opts.workdir, "inputs"))
	if err != nil {
		return nil, err
	}
	if err := in.warm(); err != nil {
		return nil, err
	}
	return in, nil
}

// passSample is one closed-loop pass from opening the inputs to the rendered
// report.
type passSample struct {
	wall      time.Duration
	cpu       float64
	rows      int64
	ok        bool
	attempted int64
	failed    int64
}

// runPasses repeats pass for the measured seconds. Untraced, it fills the
// end-to-end metrics: medians over passes (of the live-heap peak too) and
// the tail of the pass time.
// Traced, it alternates untraced and traced passes, so both see the same
// machine state, and reports the ratio of their median CPU per pass as the
// tracing overhead; the tracer is kept on res for the layer passes.
func runPasses(opts options, res *result, pass func(tr *tracer, i int) (passSample, error)) error {
	var tr *tracer
	minPasses := 1
	if opts.trace {
		res.tr = newTracer()
		tr = res.tr
		minPasses = 2
	}
	hw := watchHeap()
	r0 := readRuntime()
	var samples []passSample
	var heapMB []float64
	t0 := now()
	for i := 0; len(samples) < minPasses || time.Since(t0).Seconds() < opts.seconds; i++ {
		var passTr *tracer
		if i%2 == 1 {
			passTr = tr
		}
		ps, err := pass(passTr, i)
		if err != nil {
			hw.done()
			return err
		}
		res.attempted += max(ps.attempted, 1)
		res.failed += ps.failed
		if !ps.ok {
			res.correct = false
		}
		samples = append(samples, ps)
		heapMB = append(heapMB, hw.lap())
	}
	r1 := readRuntime()
	hw.done()
	m := res.metrics
	if !opts.trace {
		var passMS, rate, cpu []float64
		for _, ps := range samples {
			passMS = append(passMS, float64(ps.wall)/1e6)
			rate = append(rate, float64(ps.rows)/ps.wall.Seconds())
			cpu = append(cpu, ps.cpu)
		}
		lat := summarize(passMS)
		m["rows_per_s"] = median(rate)
		m["cpu_s"] = median(cpu)
		m["peak_live_heap_mb"] = median(heapMB)
		m["pass_tail_ms"] = lat.Tail
		res.notef("passes: %s", lat.label("ms"))
		return nil
	}
	runtimeMetrics(m, r0, r1)
	m["gen.late_tail_ms"] = summarize(hw.lateMS).Tail
	var cpu [2][]float64 // untraced, traced
	for i, ps := range samples {
		cpu[i%2] = append(cpu[i%2], ps.cpu)
	}
	uc, tc := median(cpu[0]), median(cpu[1])
	m["trace.cpu_ratio"] = tc / uc
	res.notef("tracing overhead: %+.4f s CPU per pass, traced/untraced %.3f (traced %d passes, untraced %d)",
		tc-uc, tc/uc, len(cpu[1]), len(cpu[0]))
	return nil
}

// tracedLayers runs every layer pass over the workload's inputs, writes the
// Chrome trace, and notes each span's self time and the workload's heavy
// layer.
func tracedLayers(opts options, res *result, s *campus.Scenario, in *inputSet) error {
	batchRef, err := layerSuite(res, s, in)
	if err != nil {
		return err
	}
	if err := distLayer(res, s, in, batchRef); err != nil {
		return err
	}
	if err := ingestLayer(opts, res, s, in); err != nil {
		return err
	}
	if err := res.tr.writeChrome(opts.tracePath); err != nil {
		return err
	}
	res.notef("chrome trace: %s", opts.tracePath)
	lts := res.tr.selfTimes()
	sort.Slice(lts, func(i, j int) bool { return lts[i].Self > lts[j].Self })
	for _, lt := range lts {
		res.notef("span %-24s n=%-5d total %9.4f s  self %9.4f s", lt.Name, lt.Count, lt.Total.Seconds(), lt.Self.Seconds())
	}
	heavyLayerNote(opts.workload, res)
	return nil
}

// heavyLayerNote states whether the traced run confirms the layer README.md
// names as the workload's heavy one.
func heavyLayerNote(workload string, res *result) {
	m := res.metrics
	switch workload {
	case "batch-tsv":
		self := map[string]float64{
			"io.read":            m["io.read_s"],
			"zeek.join (−read)":  m["zeek.join_s"] - m["io.read_s"],
			"analysis.aggregate": m["analysis.aggregate_self_s"],
			"analysis.run_wN":    m["analysis.run_wN_s"],
			"analysis.finalize":  m["analysis.finalize_s"],
			"analysis.render":    m["analysis.render_s"],
		}
		top := ""
		for k, v := range self {
			if top == "" || v > self[top] || (v == self[top] && k < top) {
				top = k
			}
		}
		res.notef("heavy layer (batch-tsv): largest self time is %s (%.3f s); expected zeek.join: %v",
			top, self[top], top == "zeek.join (−read)")
	case "dist-json-gz":
		codec := m["analysis.state_encode_s"] + m["analysis.state_decode_s"]
		res.notef("heavy layer (dist-json-gz): state encode+decode %.3f s vs zeek.join %.3f s; codec heavier: %v",
			codec, m["zeek.join_s"], codec > m["zeek.join_s"])
	}
	// The ingest pass runs on every workload's bytes; its heavy layer is the
	// aggregate + window-ring fold.
	res.notef("heavy layer (ingest pass): ingest.fold_self %.3f s vs zeek.tail_join %.3f s; fold heavier: %v",
		m["ingest.fold_self_s"], m["zeek.tail_join_s"], m["ingest.fold_self_s"] > m["zeek.tail_join_s"])
}

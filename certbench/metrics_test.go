package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json certbench's output must
// match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	canon := func(names []string) string { sort.Strings(names); return strings.Join(names, ",") }
	pairs := func(defs []metricDef) string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name+"="+d.Unit)
		}
		return canon(out)
	}
	var e2e, layer, wl []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name+"="+m.Unit)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name+"="+m.Unit)
	}
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	if got, want := pairs(endToEnd), canon(e2e); got != want {
		t.Errorf("end-to-end metrics:\n certbench %s\n file   %s", got, want)
	}
	if got, want := pairs(perLayer), canon(layer); got != want {
		t.Errorf("per-layer metrics:\n certbench %s\n file   %s", got, want)
	}
	if len(wl) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads", len(wl))
	}
	for _, name := range wl {
		if _, ok := workloads[name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to certbench", name)
		}
	}
}

func TestResultLineRequiresEveryMetric(t *testing.T) {
	res := &result{correct: true, attempted: 1, metrics: map[string]float64{"setup_s": 1}}
	if _, err := resultLine(res, endToEnd); err == nil {
		t.Fatal("result line printed with metrics missing")
	}
	for _, d := range endToEnd {
		res.metrics[d.Name] = 1.5
	}
	line, err := resultLine(res, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 1 || len(out.Metrics) != len(endToEnd) || out.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("result line = %s", line)
	}
}

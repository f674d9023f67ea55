package main

import (
	"math"
	"path/filepath"
	"testing"
)

// tinySizes shrinks every workload so that a traced and an untraced run of
// each finish in well under a minute.
var tinySizes = map[string]sizes{
	"batch-tsv":    {Scale: 0.002, ConnCap: 50},
	"dist-json-gz": {Scale: 0.002, ConnCap: 1, Partitions: 4},
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		if _, ok := tinySizes[name]; !ok {
			t.Errorf("workload %s has no tiny size", name)
		}
	}
	for name, sz := range tinySizes {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				opts := options{workload: name, seed: 1, seconds: 2, trace: traced, sizes: sz,
					workdir: filepath.Join(dir, "work")}
				table := endToEnd
				if traced {
					opts.tracePath = filepath.Join(dir, "trace.json")
					table = perLayer
				}
				res, err := runWorkload(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.correct, res.attempted, res.failed, res.notes)
				}
				if _, err := resultLine(res, table); err != nil {
					t.Fatal(err)
				}
				for _, d := range table {
					if v := res.metrics[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", d.Name, v)
					}
				}
			})
		}
	}
}

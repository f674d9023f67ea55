// Command certbench is the repository's benchmark: it generates Zeek logs
// from a seed with the repository's own writers, drives them through the
// same public calls the binaries make (certchain-analyze's log-file mode,
// certchain-coord with certchain-shardd workers, certchain-ingestd), checks
// every report against a reference computed in set-up, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash certbench/run.sh --workload batch-tsv --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run; with
// --trace 1 it runs every layer pass and a traced copy of the workload and
// prints the per-layer metrics, writing a Chrome trace under .bench_build/.
// See README.md for the workloads and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one printed metric; the tables below must list exactly the
// names and units of BENCHMARK.json (metrics_test.go checks this).
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_live_heap_mb", "MB"},
	{"pass_tail_ms", "ms"},
}

var perLayer = []metricDef{
	{"io.read_s", "s"},
	{"zeek.join_s", "s"},
	{"zeek.rows", "count"},
	{"zeek.join_alloc_mb", "MB"},
	{"zeek.tail_join_s", "s"},
	{"zeek.tail_rows_per_s", "1/s"},
	{"analysis.load_s", "s"},
	{"analysis.aggregate_self_s", "s"},
	{"analysis.observations", "count"},
	{"analysis.observe_s", "s"},
	{"analysis.observe_alloc_mb", "MB"},
	{"analysis.run_w1_s", "s"},
	{"analysis.run_wN_s", "s"},
	{"analysis.scaling_wN", "1"},
	{"analysis.merge_s", "s"},
	{"analysis.merge_per_part_ms", "ms"},
	{"analysis.finalize_s", "s"},
	{"analysis.render_s", "s"},
	{"analysis.report_bytes", "bytes"},
	{"analysis.state_encode_s", "s"},
	{"analysis.state_decode_s", "s"},
	{"analysis.state_bytes", "bytes"},
	{"dist.assigns", "count"},
	{"dist.status_polls", "count"},
	{"dist.partial_bytes", "bytes"},
	{"dist.partial_serve_ms", "ms"},
	{"dist.useful_frac", "1"},
	{"dist.coord_tail_s", "s"},
	{"ingest.poll_s", "s"},
	{"ingest.poll_n", "count"},
	{"ingest.poll_p50_ms", "ms"},
	{"ingest.poll_tail_ms", "ms"},
	{"ingest.busy_frac", "1"},
	{"ingest.fold_self_s", "s"},
	{"ingest.report_build_p50_ms", "ms"},
	{"ingest.snapshot_s", "s"},
	{"ingest.snapshot_bytes", "bytes"},
	{"ingest.join_pending_max", "count"},
	{"ingest.cert_index", "count"},
	{"campus.generate_s", "s"},
	{"gen.late_tail_ms", "ms"},
	{"runtime.gc_cpu_frac", "1"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"trace.cpu_ratio", "1"},
}

// workloads holds each workload's fixed sizes, chosen on a 2-core host so
// that a run, set-up included, takes under a minute and still yields enough
// samples for a tail; README.md records why each workload exists.
var workloads = map[string]sizes{
	"batch-tsv":    {Scale: 0.01, ConnCap: 50},
	"dist-json-gz": {Scale: 0.005, ConnCap: 1, Partitions: 8},
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	// workdir holds the generated inputs and live files; tracePath, when
	// set, receives the Chrome trace of a traced run.
	workdir   string
	tracePath string
}

// result is what a workload reports. metrics holds every metric the run
// measured; the caller selects the end-to-end or per-layer table.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string
	// tr is the traced run's span recorder (nil untraced).
	tr *tracer
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		workload = flag.String("workload", "", "batch-tsv or dist-json-gz")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "measured seconds")
		traceOn  = flag.Int("trace", 0, "1 runs the traced per-layer pass")
	)
	flag.Parse()
	sz, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "certbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	build := ".bench_build"
	workdir := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		sizes: sz, workdir: workdir}
	if opts.trace {
		opts.tracePath = filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	}
	res, err := runWorkload(opts)
	os.RemoveAll(workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "certbench:", err)
		os.Exit(1)
	}
	table := endToEnd
	if opts.trace {
		table = perLayer
	}
	line, err := resultLine(res, table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "certbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, d := range table {
		fmt.Printf("%-28s %16.6f %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	fmt.Println(line)
}

func runWorkload(opts options) (*result, error) {
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return nil, err
	}
	if opts.tracePath != "" {
		if err := os.MkdirAll(filepath.Dir(opts.tracePath), 0o755); err != nil {
			return nil, err
		}
	}
	switch opts.workload {
	case "batch-tsv":
		return runBatch(opts)
	case "dist-json-gz":
		return runDist(opts)
	}
	return nil, fmt.Errorf("unknown workload %q", opts.workload)
}

// resultLine renders the final JSON line with exactly the table's metrics.
// A metric the run failed to measure is an error, not a silent gap.
func resultLine(res *result, table []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]value)}
	var missing []string
	for _, d := range table {
		v, ok := res.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics not measured: %v", missing)
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// Command certchain-analyze runs the full measurement pipeline and prints
// every table and figure of the paper's evaluation, plus the §5 revisit
// summary.
//
// Two input modes:
//
//	certchain-analyze -seed 1 -scale 0.01            # generate in memory
//	certchain-analyze -ssl data/ssl.log -x509 data/x509.log -seed 1
//
// The log-file mode still needs the seed so the pipeline rebuilds the same
// trust stores, CT log, and interception registry the logs were generated
// against — exactly how the paper's enrichment consults external databases.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/chain"
	"certchains/internal/graph"
	"certchains/internal/lint"
	"certchains/internal/obs"
	"certchains/internal/paper"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "certchain-analyze:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed    = flag.Int64("seed", 1, "scenario seed")
		scale   = flag.Float64("scale", 0.01, "fraction of paper-scale volume (in-memory mode)")
		sslPath = flag.String("ssl", "", "path to ssl.log (enables log-file mode)")
		x5Path  = flag.String("x509", "", "path to x509.log (log-file mode)")
		revisit = flag.Bool("revisit", true, "also run the §5 retrospective comparison")
		asJSON  = flag.Bool("json", false, "emit the machine-readable JSON export instead of text")
		format  = flag.String("format", "tsv", "log format for -ssl/-x509: tsv or json")
		dotDir  = flag.String("dot", "", "also write figure5/7/8 Graphviz files into this directory")
		verify  = flag.Bool("verify", false, "check every measured value against the paper's reported targets")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "pipeline worker count; any value produces an identical report")
		lintPro = flag.String("lint", "", "lint every chain and append a corpus prevalence table; value is the check profile (paper, strict, all)")

		tracePath    = flag.String("trace", "", "write a Chrome trace-event JSON file of the run's stage spans (view in chrome://tracing or Perfetto)")
		manifestPath = flag.String("manifest", "", "write a run provenance manifest (seed, flags, input digests, stage costs, build info) to this path")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics (Prometheus text format) on this address for the duration of the run")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this path at exit")
		logFormat    = flag.String("log-format", "text", "diagnostic log format: text or json")
		logLevel     = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, error")
	)
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				logger.Error("heap profile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				logger.Error("heap profile", "err", err)
			}
		}()
	}

	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "certchain-analyze")
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		go func() { _ = http.Serve(ln, mux) }()
		logger.Info("metrics", "addr", fmt.Sprintf("http://%s/metrics", ln.Addr()))
	}

	cfg := campus.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	scenario, err := campus.Generate(cfg)
	if err != nil {
		return err
	}

	pipeline := analysis.FromScenario(scenario)
	pipeline.Tracer = tracer
	if *lintPro != "" {
		// The scenario's collection end is the deterministic reference time:
		// the same inputs always produce the same lint prevalence table.
		pipeline.Linter = lint.New(scenario.Classifier, lint.Config{
			Now:     scenario.End(),
			Profile: *lintPro,
		})
	}

	observations := scenario.Observations
	var report *analysis.Report
	var inputs []obs.InputDigest
	if *sslPath != "" || *x5Path != "" {
		if *sslPath == "" || *x5Path == "" {
			return fmt.Errorf("log-file mode needs both -ssl and -x509")
		}
		for _, path := range []string{*sslPath, *x5Path} {
			d, err := obs.DigestFile(path)
			if err != nil {
				return err
			}
			inputs = append(inputs, d)
		}
		sslF, err := os.Open(*sslPath)
		if err != nil {
			return err
		}
		defer sslF.Close()
		x5F, err := os.Open(*x5Path)
		if err != nil {
			return err
		}
		defer x5F.Close()
		f := analysis.FormatTSV
		switch *format {
		case "tsv":
		case "json":
			f = analysis.FormatJSON
		default:
			return fmt.Errorf("unknown format %q (tsv or json)", *format)
		}
		// Stream the Zeek join straight into the sharded pipeline; the
		// observation slice is only retained when -dot needs a second pass.
		obsCh := make(chan *campus.Observation, 256)
		loadErr := make(chan error, 1)
		loaded := 0
		observations = nil
		loadSpan := tracer.Start("load", "load/zeek")
		go func() {
			defer close(obsCh)
			err := analysis.LoadFormatFunc(f, sslF, x5F, func(o *campus.Observation) error {
				loaded++
				if *dotDir != "" {
					observations = append(observations, o)
				}
				obsCh <- o
				return nil
			})
			loadSpan.SetRecords(int64(loaded))
			loadSpan.End()
			loadErr <- err
		}()
		report = pipeline.RunStream(obsCh, *workers)
		if err := <-loadErr; err != nil {
			return err
		}
		fmt.Printf("loaded %d chain observations from logs\n\n", loaded)
	} else {
		report = pipeline.RunParallel(observations, *workers)
	}
	var reportBytes []byte
	if *asJSON {
		data, err := report.JSON()
		if err != nil {
			return err
		}
		reportBytes = data
	} else {
		reportBytes = []byte(report.Render())
	}

	// Artifacts cover both output modes; emit them before the JSON early
	// return. All pipeline spans have ended by now, so stage aggregates are
	// final.
	fillRunMetrics(reg, tracer)
	emitArtifacts := func() error {
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			if err := tracer.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			logger.Info("wrote trace", "path", *tracePath)
		}
		if *manifestPath != "" {
			man := buildManifest(*seed, *scale, *workers, inputs, tracer, reportBytes)
			if err := man.WriteFile(*manifestPath); err != nil {
				return err
			}
			logger.Info("wrote manifest", "path", *manifestPath, "report_sha256", man.ReportSHA256)
		}
		return nil
	}

	if *asJSON {
		os.Stdout.Write(reportBytes)
		fmt.Println()
		return emitArtifacts()
	}
	os.Stdout.Write(reportBytes)
	if err := emitArtifacts(); err != nil {
		return err
	}

	if *revisit {
		fmt.Println()
		rr := analysis.AnalyzeRevisit(scenario.Classifier, scenario.Revisit, "Lets Encrypt")
		fmt.Print(rr.Render())
	}

	if *verify {
		fmt.Println("\nPaper-vs-measured verification:")
		checks := paper.Verify(report)
		checks = append(checks, paper.VerifyRevisit(analysis.AnalyzeRevisit(scenario.Classifier, scenario.Revisit, "Lets Encrypt"))...)
		failed := 0
		for _, c := range checks {
			fmt.Println(" ", c)
			if !c.Pass {
				failed++
			}
		}
		fmt.Printf("%d checks, %d failed\n", len(checks), failed)
		if failed > 0 {
			return fmt.Errorf("%d reproduction checks failed", failed)
		}
	}

	if *dotDir != "" {
		if err := writeDOTFigures(scenario, observations, *dotDir); err != nil {
			return err
		}
		fmt.Printf("\nwrote figure5.dot, figure7.dot, figure8.dot to %s (render with `dot -Tsvg`)\n", *dotDir)
	}
	return nil
}

// buildManifest assembles the run's provenance record. Flags record only
// what was explicitly set; the deterministic subset additionally drops
// operational flags (workers, artifact paths), so equivalent runs at any
// width produce byte-identical subsets.
func buildManifest(seed int64, scale float64, workers int, inputs []obs.InputDigest, tracer *obs.Tracer, reportBytes []byte) *obs.Manifest {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	flags := make(map[string]string)
	flag.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	return &obs.Manifest{
		Tool:         "certchain-analyze",
		Seed:         seed,
		Scale:        scale,
		Workers:      workers,
		Flags:        flags,
		Inputs:       inputs,
		Stages:       tracer.Stages(),
		ReportSHA256: obs.SHA256Hex(reportBytes),
		WallNS:       tracer.WallNS(),
		Build:        obs.Build(),
	}
}

// fillRunMetrics publishes the finished run's stage costs to the registry
// behind -metrics-addr: per-stage record and span totals as gauges and each
// stage's wall time as a duration histogram observation.
func fillRunMetrics(reg *obs.Registry, tracer *obs.Tracer) {
	records := reg.Gauge("certchain_stage_records", "Records processed per pipeline stage.", "stage")
	spans := reg.Gauge("certchain_stage_spans", "Spans recorded per pipeline stage.", "stage")
	dur := reg.Histogram("certchain_stage_duration_seconds", "Wall time per pipeline stage.", obs.DefaultDurationBuckets, "stage")
	for _, st := range tracer.Stages() {
		records.With(st.Stage).Set(float64(st.Records))
		spans.With(st.Stage).Set(float64(st.Spans))
		dur.With(st.Stage).Observe(float64(st.WallNS) / 1e9)
	}
}

// writeDOTFigures regenerates Figures 5, 7 and 8 as Graphviz files.
func writeDOTFigures(scenario *campus.Scenario, observations []*campus.Observation, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	graphs := map[string]struct {
		cat  chain.Category
		opts graph.DOTOptions
	}{
		"figure5.dot": {chain.Hybrid, graph.DOTOptions{Name: "figure5_hybrid", MaxNodes: 800}},
		"figure7.dot": {chain.NonPublicDBOnly, graph.DOTOptions{Name: "figure7_nonpub", MaxNodes: 800}},
		"figure8.dot": {chain.Interception, graph.DOTOptions{Name: "figure8_interception", OmitLeaves: true, MaxNodes: 800}},
	}
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := graphs[name]
		g := graph.New()
		for _, o := range observations {
			if len(o.Chain) > 30 {
				continue
			}
			a := scenario.Classifier.Analyze(o.Chain)
			if a.Category != spec.cat {
				continue
			}
			g.AddChain(o.Chain, a.Classes)
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := g.WriteDOT(f, spec.opts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

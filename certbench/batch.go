package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
)

// runBatch is certchain-analyze's log-file mode: LoadFormatFunc in a
// goroutine feeding Pipeline.RunStream at GOMAXPROCS workers, then Render
// and JSON. Every pass must reproduce the one-worker RunParallel report over
// the same files, computed in set-up.
func runBatch(opts options) (*result, error) {
	res := &result{correct: true, metrics: make(map[string]float64)}
	var s *campus.Scenario
	err := measureSetup(opts, res, func() (time.Duration, time.Duration, error) {
		s = nil
		t0 := now()
		sc, gen, err := generate(opts)
		if err != nil {
			return 0, 0, err
		}
		analysis.FromScenario(sc)
		s = sc
		return time.Since(t0), gen, nil
	})
	if err != nil {
		return nil, err
	}
	in, err := prepareInputs(opts, s)
	if err != nil {
		return nil, err
	}
	part := in.parts[0]
	var obs []*campus.Observation
	if err := withPair(part, func(ssl, x509 io.Reader) (err error) {
		obs, err = analysis.LoadFormat(in.format, ssl, x509)
		return err
	}); err != nil {
		return nil, err
	}
	want, err := render(analysis.FromScenario(s).RunParallel(obs, 1))
	if err != nil {
		return nil, err
	}
	obs = nil

	pass := func(tr *tracer, i int) (passSample, error) {
		group := fmt.Sprintf("pass-%d", i)
		root := tr.start("batch.pass", 0, group, "batch")
		c0 := cpuSeconds()
		t0 := now()
		p := analysis.FromScenario(s)
		var rb reportBytes
		err := withPair(part, func(ssl, x509 io.Reader) error {
			ch := make(chan *campus.Observation, 256)
			loadErr := make(chan error, 1)
			go func() {
				defer close(ch)
				lid := tr.start("analysis.load", root, group, "batch-load")
				loadErr <- analysis.LoadFormatFunc(in.format, ssl, x509, func(o *campus.Observation) error {
					ch <- o
					return nil
				})
				tr.end(lid)
			}()
			rid := tr.start("analysis.run_stream", root, group, "batch")
			rep := p.RunStream(ch, runtime.GOMAXPROCS(0))
			tr.end(rid)
			if err := <-loadErr; err != nil {
				return err
			}
			did := tr.start("analysis.render", root, group, "batch")
			defer tr.end(did)
			var err error
			rb, err = render(rep)
			return err
		})
		wall := time.Since(t0)
		tr.end(root)
		if err != nil {
			return passSample{}, err
		}
		ok := rb.equal(want)
		var failed int64
		if !ok {
			failed = 1
		}
		return passSample{wall: wall, cpu: cpuSeconds() - c0, rows: in.sslRows, ok: ok, failed: failed}, nil
	}
	if err := runPasses(opts, res, pass); err != nil {
		return nil, err
	}
	if opts.trace {
		if err := tracedLayers(opts, res, s, in); err != nil {
			return nil, err
		}
	}
	return res, nil
}

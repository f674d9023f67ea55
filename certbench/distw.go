package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/dist"
	"certchains/internal/resilience"
)

// distWorkers is the number of in-process workers per run (two load
// goroutines on a 2-core host), each ingesting with one goroutine.
const distWorkers = 2

// distStats counts the calls the coordinator makes into the workers'
// handlers; the benchmark wraps Worker.Handler() to see them.
type distStats struct {
	mu             sync.Mutex
	assigns        int64
	statusPolls    int64
	partialBytes   int64
	partialServeMS []float64
	lastPartialEnd time.Time
	runReturned    time.Time
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (ds *distStats) wrap(h http.Handler, tr *tracer, parent int, lane string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "dist.other"
		switch r.URL.Path {
		case "/assign":
			name = "dist.assign"
		case "/status":
			name = "dist.status"
		case "/partial":
			name = "dist.partial"
		}
		id := tr.start(name, parent, r.URL.Query().Get("partition"), lane)
		cw := &countingWriter{ResponseWriter: w}
		t0 := now()
		h.ServeHTTP(cw, r)
		end := now()
		tr.end(id)
		ds.mu.Lock()
		defer ds.mu.Unlock()
		switch name {
		case "dist.assign":
			ds.assigns++
		case "dist.status":
			ds.statusPolls++
		case "dist.partial":
			ds.partialBytes += cw.n
			ds.partialServeMS = append(ds.partialServeMS, float64(end.Sub(t0))/1e6)
			ds.lastPartialEnd = end
		}
	})
}

// cluster is one run's fresh set of workers served on loopback. A reused
// worker would re-serve partitions it already holds, so every run gets its
// own.
type cluster struct {
	urls    []string
	workers []*dist.Worker
	srvs    []*http.Server
	served  sync.WaitGroup
	client  *http.Client
}

func startCluster(s *campus.Scenario, format analysis.Format, ds *distStats, tr *tracer, parent int) (*cluster, error) {
	c := &cluster{client: &http.Client{Timeout: dist.DefaultTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
	for i := 0; i < distWorkers; i++ {
		w := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i),
			Pipeline: analysis.FromScenario(s), Format: format, Goroutines: 1})
		c.workers = append(c.workers, w)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		srv := &http.Server{Handler: ds.wrap(w.Handler(), tr, parent, fmt.Sprintf("worker-%d", i))}
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
		c.served.Add(1)
		go func() {
			defer c.served.Done()
			_ = srv.Serve(ln)
		}()
	}
	return c, nil
}

func (c *cluster) stop() {
	for _, srv := range c.srvs {
		_ = srv.Close()
	}
	c.served.Wait()
	for _, w := range c.workers {
		w.Close()
	}
	c.client.CloseIdleConnections()
}

// distRun is one coordinator run against a fresh cluster, timed from the
// Run call to the rendered report. ds.runReturned records when Run returned.
func distRun(s *campus.Scenario, p *analysis.Pipeline, in *inputSet, ds *distStats, tr *tracer,
	group string) (*dist.Result, reportBytes, time.Duration, error) {
	root := tr.start("dist.run", 0, group, "coordinator")
	defer tr.end(root)
	c, err := startCluster(s, in.format, ds, tr, root)
	if err != nil {
		return nil, reportBytes{}, 0, err
	}
	defer c.stop()
	coord := dist.NewCoordinator(dist.CoordConfig{Pipeline: p, Workers: c.urls, Format: in.format,
		Retry: resilience.DefaultPolicy(), HTTPClient: c.client})
	t0 := now()
	res, err := coord.Run(context.Background(), in.parts)
	ds.mu.Lock()
	ds.runReturned = now()
	ds.mu.Unlock()
	if err != nil {
		return nil, reportBytes{}, 0, err
	}
	rid := tr.start("analysis.render", root, group, "coordinator")
	rb, err := render(res.Report)
	tr.end(rid)
	return res, rb, time.Since(t0), err
}

// distLayer runs one coordinator pass over the workload's partitions and
// fills the dist.* metrics; its report must equal want. Assignments are the
// pass's operations; requeues and duplicates count as failed.
func distLayer(res *result, s *campus.Scenario, in *inputSet, want reportBytes) error {
	ds := &distStats{}
	r, rb, _, err := distRun(s, analysis.FromScenario(s), in, ds, res.tr, "layer")
	if err != nil {
		return err
	}
	if !rb.equal(want) {
		return errors.New("dist layer pass: report differs from the reference")
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	m := res.metrics
	m["dist.assigns"] = float64(ds.assigns)
	m["dist.status_polls"] = float64(ds.statusPolls)
	m["dist.partial_bytes"] = float64(ds.partialBytes)
	m["dist.partial_serve_ms"] = median(ds.partialServeMS)
	m["dist.useful_frac"] = float64(r.Partitions) / float64(max(ds.assigns, 1))
	m["dist.coord_tail_s"] = ds.runReturned.Sub(ds.lastPartialEnd).Seconds()
	res.attempted += ds.assigns
	res.failed += int64(r.Requeues + r.Duplicates)
	return nil
}

func runDist(opts options) (*result, error) {
	res := &result{correct: true, metrics: make(map[string]float64)}
	var s *campus.Scenario
	var p *analysis.Pipeline
	err := measureSetup(opts, res, func() (time.Duration, time.Duration, error) {
		s, p = nil, nil
		t0 := now()
		sc, gen, err := generate(opts)
		if err != nil {
			return 0, 0, err
		}
		p = analysis.FromScenario(sc)
		c, err := startCluster(sc, analysis.FormatJSON, &distStats{}, nil, 0)
		if err != nil {
			return 0, 0, err
		}
		c.stop()
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
	local, err := dist.NewCoordinator(dist.CoordConfig{Pipeline: analysis.FromScenario(s), Format: in.format}).
		RunLocal(context.Background(), in.parts)
	if err != nil {
		return nil, err
	}
	want, err := render(local.Report)
	if err != nil {
		return nil, err
	}
	pass := func(tr *tracer, i int) (passSample, error) {
		ds := &distStats{}
		c0 := cpuSeconds()
		r, rb, d, err := distRun(s, p, in, ds, tr, fmt.Sprintf("run-%d", i))
		if err != nil {
			return passSample{}, err
		}
		ok := rb.equal(want)
		fails := int64(r.Requeues + r.Duplicates)
		if !ok {
			fails++
		}
		return passSample{wall: d, cpu: cpuSeconds() - c0, rows: in.sslRows, ok: ok,
			attempted: ds.assigns, failed: fails}, nil
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

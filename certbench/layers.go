package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/dist"
	"certchains/internal/zeek"
)

// mergeParts is how many contiguous parts a single-partition input is cut
// into for the merge and state-codec passes.
const mergeParts = 8

// layerSuite runs one sequential pass per layer over the workload's inputs
// and fills the io.*, zeek.join*, and analysis.* metrics. Passes are
// separate, so a layer's self time is the difference between passes over
// the same bytes: join − read, load − join. The merged report of the
// codec/merge passes must equal a one-worker RunParallel over the same
// observations, which is returned as the batch reference for these inputs.
// Joined rows are the join pass's operations; rows the join rejects count as
// failed.
func layerSuite(res *result, s *campus.Scenario, in *inputSet) (reportBytes, error) {
	tr, m := res.tr, res.metrics
	root := tr.start("layers", 0, "", "layers")
	defer tr.end(root)
	timed := func(name, group string, fn func() error) (time.Duration, error) {
		id := tr.start(name, root, group, "layers")
		t0 := now()
		err := fn()
		d := time.Since(t0)
		tr.end(id)
		return d, err
	}

	// io: read + gunzip to io.Discard.
	var read time.Duration
	for _, part := range in.parts {
		d, err := timed("io.read", part.ID, func() error {
			for _, path := range []string{part.SSL, part.X509} {
				r, closeFn, err := openLog(path)
				if err != nil {
					return err
				}
				_, err = io.Copy(io.Discard, r)
				closeFn()
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return reportBytes{}, err
		}
		read += d
	}
	m["io.read_s"] = read.Seconds()

	// zeek: the join alone.
	join := zeek.FastJoin
	if in.format == analysis.FormatJSON {
		join = zeek.FastJoinJSON
	}
	var joinT time.Duration
	var rows, rowErrs int64
	a0 := readRuntime()
	for _, part := range in.parts {
		d, err := timed("zeek.join", part.ID, func() error {
			return withPair(part, func(ssl, x509 io.Reader) error {
				return join(ssl, x509, func(_ *zeek.Connection, err error) error {
					rows++
					if err != nil {
						rowErrs++
					}
					return nil
				})
			})
		})
		if err != nil {
			return reportBytes{}, err
		}
		joinT += d
	}
	m["zeek.join_alloc_mb"] = allocMB(a0, readRuntime())
	m["zeek.join_s"] = joinT.Seconds()
	m["zeek.rows"] = float64(rows)
	res.attempted += rows
	res.failed += rowErrs

	// analysis: load (join + aggregation), per partition.
	var loadT time.Duration
	var groups [][]*campus.Observation
	for _, part := range in.parts {
		var obs []*campus.Observation
		d, err := timed("analysis.load", part.ID, func() error {
			return withPair(part, func(ssl, x509 io.Reader) error {
				return analysis.LoadFormatFunc(in.format, ssl, x509, func(o *campus.Observation) error {
					obs = append(obs, o)
					return nil
				})
			})
		})
		if err != nil {
			return reportBytes{}, err
		}
		loadT += d
		groups = append(groups, obs)
	}
	var all []*campus.Observation
	for _, g := range groups {
		all = append(all, g...)
	}
	if len(groups) == 1 {
		groups = dist.SplitObservations(all, mergeParts)
	}
	m["analysis.load_s"] = loadT.Seconds()
	m["analysis.aggregate_self_s"] = (loadT - joinT).Seconds()
	m["analysis.observations"] = float64(len(all))

	// Sequential Accumulator.Observe, then RunParallel at 1 and GOMAXPROCS.
	a0 = readRuntime()
	d, _ := timed("analysis.observe", "", func() error {
		acc := analysis.FromScenario(s).NewAccumulator()
		for _, o := range all {
			acc.Observe(o)
		}
		return nil
	})
	m["analysis.observe_alloc_mb"] = allocMB(a0, readRuntime())
	m["analysis.observe_s"] = d.Seconds()
	var ref *analysis.Report
	w1, _ := timed("analysis.run_w1", "", func() error {
		ref = analysis.FromScenario(s).RunParallel(all, 1)
		return nil
	})
	wN, _ := timed("analysis.run_wN", "", func() error {
		analysis.FromScenario(s).RunParallel(all, runtime.GOMAXPROCS(0))
		return nil
	})
	m["analysis.run_w1_s"] = w1.Seconds()
	m["analysis.run_wN_s"] = wN.Seconds()
	m["analysis.scaling_wN"] = w1.Seconds() / wN.Seconds()

	// Per-part accumulators through the state codec, then merge, finalize,
	// render — the coordinator's path without the wire.
	p := analysis.FromScenario(s)
	states := make([][]byte, len(groups))
	var encT, decT time.Duration
	var stateBytes int
	for i, g := range groups {
		acc := p.NewAccumulator()
		for _, o := range g {
			acc.Observe(o)
		}
		d, err := timed("analysis.state_encode", fmt.Sprint(i), func() (err error) {
			states[i], err = acc.EncodeState()
			return err
		})
		if err != nil {
			return reportBytes{}, err
		}
		encT += d
		stateBytes += len(states[i])
	}
	accs := make([]*analysis.Accumulator, len(groups))
	for i := range states {
		d, err := timed("analysis.state_decode", fmt.Sprint(i), func() (err error) {
			accs[i], err = p.DecodeState(states[i])
			return err
		})
		if err != nil {
			return reportBytes{}, err
		}
		decT += d
	}
	m["analysis.state_encode_s"] = encT.Seconds()
	m["analysis.state_decode_s"] = decT.Seconds()
	m["analysis.state_bytes"] = float64(stateBytes)
	mergeT, _ := timed("analysis.merge", "", func() error {
		base := accs[0].Observations()
		for _, acc := range accs[1:] {
			acc.OffsetSeq(base)
			base += acc.Observations()
			accs[0].Merge(acc)
		}
		return nil
	})
	m["analysis.merge_s"] = mergeT.Seconds()
	m["analysis.merge_per_part_ms"] = mergeT.Seconds() * 1e3 / float64(max(len(accs)-1, 1))
	var rep *analysis.Report
	fin, _ := timed("analysis.finalize", "", func() error {
		rep = accs[0].Finalize()
		return nil
	})
	m["analysis.finalize_s"] = fin.Seconds()
	var text string
	var js []byte
	rend, err := timed("analysis.render", "", func() (err error) {
		text = rep.Render()
		js, err = rep.JSON()
		return err
	})
	if err != nil {
		return reportBytes{}, err
	}
	m["analysis.render_s"] = rend.Seconds()
	m["analysis.report_bytes"] = float64(len(text) + len(js))
	refJS, err := ref.JSON()
	if err != nil {
		return reportBytes{}, err
	}
	want := reportBytes{text: ref.Render(), json: refJS}
	if !want.equal(reportBytes{text: text, json: js}) {
		return reportBytes{}, fmt.Errorf("layer passes: merged report differs from RunParallel(obs, 1)")
	}
	return want, nil
}

// withPair opens a partition's two logs (gunzipped if compressed).
func withPair(part dist.Partition, fn func(ssl, x509 io.Reader) error) error {
	ssl, closeSSL, err := openLog(part.SSL)
	if err != nil {
		return err
	}
	defer closeSSL()
	x509, closeX509, err := openLog(part.X509)
	if err != nil {
		return err
	}
	defer closeX509()
	return fn(ssl, x509)
}

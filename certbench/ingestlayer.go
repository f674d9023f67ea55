package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/ingest"
	"certchains/internal/zeek"
)

const (
	// drainChunkRows is the ssl rows appended before each PollOnce.
	drainChunkRows = 4096
	// reportBuilds is how many direct Ingestor.Report calls time the report
	// build.
	reportBuilds = 3
)

// liveFiles is one fresh pair of tailed logs and the ingestor's snapshot.
type liveFiles struct {
	ssl, x509, snap string
}

// newLiveFiles writes every certificate to a fresh x509.log and leaves
// ssl.log empty for the appender.
func newLiveFiles(dir string, x509 []byte) (*liveFiles, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lf := &liveFiles{ssl: filepath.Join(dir, "ssl.log"), x509: filepath.Join(dir, "x509.log"),
		snap: filepath.Join(dir, "state.snapshot")}
	if err := os.WriteFile(lf.x509, x509, 0o644); err != nil {
		return nil, err
	}
	return lf, os.WriteFile(lf.ssl, nil, 0o644)
}

func (lf *liveFiles) config(json bool) ingest.Config {
	return ingest.Config{SSLPath: lf.ssl, X509Path: lf.x509, SnapshotPath: lf.snap, JSON: json}
}

// ingestLayer is the closed-loop ingest pass over the workload's own log
// bytes, as certchain-ingestd tails them: every certificate is appended
// first, then the ssl rows in chunks of drainChunkRows with a PollOnce after
// each, a snapshot, and Finish. A second pass runs Tailer.Poll +
// IncrementalJoiner alone over the same files, so ingest.fold_self_s =
// ingest.poll_s − zeek.tail_join_s is the aggregate + window-ring fold
// share. Polls are the pass's operations; record errors count as failed.
func ingestLayer(opts options, res *result, s *campus.Scenario, in *inputSet) error {
	m := res.metrics
	tr := res.tr
	root := tr.start("ingest.drain", 0, "", "layers")
	defer tr.end(root)
	var sslData, x509Data []byte
	for _, part := range in.parts {
		for _, f := range []struct {
			path string
			dst  *[]byte
		}{{part.SSL, &sslData}, {part.X509, &x509Data}} {
			r, closeFn, err := openLog(f.path)
			if err != nil {
				return err
			}
			data, err := io.ReadAll(r)
			closeFn()
			if err != nil {
				return err
			}
			*f.dst = append(*f.dst, data...)
		}
	}
	lf, err := newLiveFiles(filepath.Join(opts.workdir, "drain"), x509Data)
	if err != nil {
		return err
	}
	json := in.format == analysis.FormatJSON
	ing := ingest.New(analysis.FromScenario(s), lf.config(json))
	defer ing.Close()
	sslF, err := os.OpenFile(lf.ssl, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer sslF.Close()

	var pollMS []float64
	var busy time.Duration
	var pendingMax int
	t0 := now()
	for rest := sslData; len(rest) > 0; {
		cut := len(rest)
		for i, off := 0, 0; i < drainChunkRows; i++ {
			j := bytes.IndexByte(rest[off:], '\n')
			if j < 0 {
				break
			}
			off += j + 1
			cut = off
		}
		if _, err := sslF.Write(rest[:cut]); err != nil {
			return err
		}
		rest = rest[cut:]
		id := tr.start("ingest.poll", root, "", "layers")
		p0 := now()
		err := ing.PollOnce()
		d := time.Since(p0)
		tr.end(id)
		if err != nil {
			return err
		}
		busy += d
		pollMS = append(pollMS, float64(d)/1e6)
		pendingMax = max(pendingMax, ing.Stats().JoinPending)
	}
	id := tr.start("ingest.snapshot", root, "", "layers")
	s0 := now()
	err = ing.SnapshotToFile()
	snapT := time.Since(s0)
	tr.end(id)
	if err != nil {
		return err
	}
	var builds []float64
	for i := 0; i < reportBuilds; i++ {
		id := tr.start("ingest.report_build", root, "", "layers")
		b0 := now()
		ing.Report(0)
		builds = append(builds, float64(time.Since(b0))/1e6)
		tr.end(id)
	}
	id = tr.start("ingest.finish", root, "", "layers")
	f0 := now()
	err = ing.Finish()
	finish := time.Since(f0)
	tr.end(id)
	if err != nil {
		return err
	}
	wall := time.Since(t0) - snapT
	st := ing.Stats()
	pollS := (busy + finish).Seconds()

	tailS, rows, err := tailJoin(tr, root, lf, json)
	if err != nil {
		return err
	}
	m["ingest.poll_s"] = pollS
	m["zeek.tail_join_s"] = tailS
	m["zeek.tail_rows_per_s"] = float64(rows) / tailS
	m["ingest.fold_self_s"] = pollS - tailS

	poll := summarize(pollMS)
	snapBytes := 0.0
	if fi, err := os.Stat(lf.snap); err == nil {
		snapBytes = float64(fi.Size())
	}
	m["ingest.poll_n"] = float64(poll.N)
	m["ingest.poll_p50_ms"] = poll.P50
	m["ingest.poll_tail_ms"] = poll.Tail
	m["ingest.busy_frac"] = busy.Seconds() / wall.Seconds()
	m["ingest.report_build_p50_ms"] = median(builds)
	m["ingest.snapshot_s"] = snapT.Seconds()
	m["ingest.snapshot_bytes"] = snapBytes
	m["ingest.join_pending_max"] = float64(pendingMax)
	m["ingest.cert_index"] = float64(st.CertIndex)
	res.attempted += int64(poll.N)
	res.failed += int64(st.RecordErrs)
	return nil
}

// tailJoin runs Tailer.Poll + IncrementalJoiner (the ingestor's default
// bounds) over complete live files: certificates first, then connections,
// then Finish, as the ingestor feeds them.
func tailJoin(tr *tracer, parent int, lf *liveFiles, json bool) (float64, int64, error) {
	newDec := func() zeek.LineDecoder { return zeek.NewTSVDecoder() }
	if json {
		newDec = func() zeek.LineDecoder { return zeek.NewJSONDecoder() }
	}
	var rows int64
	joiner := zeek.NewIncrementalJoiner(0, 0, func(*zeek.Connection) error { return nil })
	sslT := zeek.NewTailer(lf.ssl, newDec)
	x509T := zeek.NewTailer(lf.x509, newDec)
	defer sslT.Close()
	defer x509T.Close()
	addX509 := func(r zeek.Record) error { _ = joiner.AddX509Record(r); return nil }
	addSSL := func(r zeek.Record) error {
		rows++
		_ = joiner.AddSSLRecord(r)
		return nil
	}
	id := tr.start("zeek.tail_join", parent, "", "layers")
	defer tr.end(id)
	t0 := now()
	for _, step := range []func() error{
		func() error { return x509T.Poll(addX509) },
		func() error { return sslT.Poll(addSSL) },
		func() error { return x509T.Finish(addX509) },
		func() error { return sslT.Finish(addSSL) },
		joiner.Finish,
	} {
		if err := step(); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(t0).Seconds(), rows, nil
}

package ingest_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/certmodel"
	"certchains/internal/ingest"
)

// FuzzIngestRestore feeds arbitrary bytes to the daemon's snapshot restore.
// Property: Restore either returns an error or returns a daemon on which
// PollOnce, Report(0), Snapshot and Finish all return without panicking.
// The seeds are a real mid-stream snapshot (a few folded windows, open
// aggregates, a non-empty join buffer) and the same snapshot with a null
// record in the join buffer.
func FuzzIngestRestore(f *testing.F) {
	s := scenario(f, 1)
	ssl, x509 := replayBytes(f, s, false)
	// A short prefix keeps the seed small: each fuzz input decodes in full.
	sslCut := bytes.LastIndexByte(ssl[:len(ssl)/40], '\n') + 1
	x509Cut := bytes.LastIndexByte(x509[:len(x509)/60], '\n') + 1
	sslPath, x509Path := writeLogs(f, f.TempDir(), ssl[:sslCut], x509[:x509Cut])
	cfg := ingest.Config{
		SSLPath:  sslPath,
		X509Path: x509Path,
		Window:   analysis.WindowConfig{Interval: span(s) / 200, Buckets: 2},
	}
	p := newPipeline(s)

	ing := ingest.New(p, cfg)
	if err := ing.PollOnce(); err != nil {
		f.Fatal(err)
	}
	snap, err := ing.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	ing.Close()
	f.Add(snap)
	f.Add(withNullPending(f, snap))

	f.Fuzz(func(t *testing.T, data []byte) {
		ing, err := ingest.Restore(p, cfg, data)
		if err != nil {
			return
		}
		defer ing.Close()
		_ = ing.PollOnce()
		ing.Report(0)
		if _, err := ing.Snapshot(); err != nil {
			t.Fatalf("snapshot of a restored daemon: %v", err)
		}
		_ = ing.Finish()
	})
}

// withNullPending rewrites a snapshot so its join buffer holds one null
// record.
func withNullPending(tb testing.TB, snap []byte) []byte {
	tb.Helper()
	payload, err := certmodel.Open(snap, ingest.SnapshotSchema, ingest.SnapshotVersion)
	if err != nil {
		tb.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		tb.Fatal(err)
	}
	var joiner map[string]json.RawMessage
	if err := json.Unmarshal(fields["joiner"], &joiner); err != nil {
		tb.Fatal(err)
	}
	joiner["pending"] = json.RawMessage(`[null]`)
	if fields["joiner"], err = json.Marshal(joiner); err != nil {
		tb.Fatal(err)
	}
	out, err := certmodel.Seal(ingest.SnapshotSchema, ingest.SnapshotVersion, fields)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

package ingest_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/ingest"
)

// TestDaemonGracefulShutdown runs the full daemon loop against replayed
// logs: the admin surface comes up, ingestion progresses, and cancelling the
// context drains the HTTP server, writes a final restorable snapshot, and
// returns nil.
func TestDaemonGracefulShutdown(t *testing.T) {
	s := scenario(t, 1)
	ssl, x509 := replayBytes(t, s, false)
	dir := t.TempDir()
	sslPath, x509Path := writeLogs(t, dir, ssl, x509)
	cfg := ingest.Config{
		SSLPath:      sslPath,
		X509Path:     x509Path,
		Window:       analysis.WindowConfig{Interval: span(s) / 8, Buckets: 4},
		SnapshotPath: filepath.Join(dir, "ingest.snapshot"),
	}
	ing := ingest.New(newPipeline(s), cfg)
	d := ingest.NewDaemon(ing, ingest.DaemonConfig{
		Addr:          "127.0.0.1:0",
		Poll:          5 * time.Millisecond,
		SnapshotEvery: -1, // shutdown writes the only snapshot
		ShutdownGrace: 2 * time.Second,
		Logf:          t.Logf,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()

	select {
	case <-d.Started():
	case err := <-runErr:
		t.Fatalf("daemon died before starting: %v", err)
	}
	base := "http://" + d.Addr()

	// Wait for the poll loop to join the capture.
	var joined int64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		body := httpGet(t, base+"/healthz")
		var health struct {
			Status string `json:"status"`
			Joiner struct {
				Joined int64 `json:"joined"`
			} `json:"joiner"`
		}
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		if health.Status != "ok" {
			t.Fatalf("/healthz status %q", health.Status)
		}
		if joined = health.Joiner.Joined; joined > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if joined == 0 {
		t.Fatal("daemon never joined a connection")
	}
	if body := httpGet(t, base+"/metrics"); len(body) == 0 {
		t.Fatal("/metrics empty")
	}
	if body := httpGet(t, base+"/report?format=json"); !json.Valid(body) {
		t.Fatal("/report returned invalid JSON")
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v on clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// The listener is down and the final snapshot restores.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still serving after shutdown")
	}
	data, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	restored, err := ingest.Restore(newPipeline(s), cfg, data)
	if err != nil {
		t.Fatalf("final snapshot does not restore: %v", err)
	}
	defer restored.Close()
	if err := restored.Finish(); err != nil {
		t.Fatalf("restored ingestor finish: %v", err)
	}
	if text, _ := renderings(t, restored.Report(0)); text == "" {
		t.Error("restored report rendered empty")
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

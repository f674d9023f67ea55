// Chaos equivalence suite: the streaming ingest chain under injected I/O
// faults. For every plan whose operations eventually succeed, the final
// report and the manifest's deterministic subset must be byte-identical to
// the fault-free run at every worker width — faults may only show up in the
// retry/fault counters, never in analysis results.
package ingest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/ingest"
	"certchains/internal/obs"
	"certchains/internal/resilience"
)

// chaosPolicy is a deterministic retry policy: seeded jitter, no real
// sleeping.
func chaosPolicy() resilience.Policy {
	p := resilience.DefaultPolicy()
	p.JitterSeed = 13
	p.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	return p
}

// pollClean polls through injected faults until the plan is fully played AND
// a poll succeeds, returning how many polls failed on the way. Clean polls
// keep advancing the per-op attempt counters (each poll reads both tails to
// EOF), so scheduled late-attempt faults always drain.
func pollClean(tb testing.TB, ing *ingest.Ingestor, p *resilience.Plan) (faults int) {
	tb.Helper()
	for tries := 0; tries < 64; tries++ {
		err := ing.PollOnce()
		if err == nil {
			if p.Pending() == 0 {
				return faults
			}
			continue
		}
		if !resilience.IsInjected(err) {
			tb.Fatalf("non-injected poll error: %v", err)
		}
		faults++
	}
	tb.Fatal("poll never recovered within 64 tries")
	return
}

// runManifest builds the provenance record a daemon run would emit, from
// which only the deterministic subset is compared across runs.
func runManifest(tb testing.TB, seed int64, workers int, ssl, x509 []byte, reportText string) []byte {
	tb.Helper()
	m := &obs.Manifest{
		Tool:    "certchain-ingestd",
		Seed:    seed,
		Scale:   equivScale,
		Workers: workers,
		Inputs: []obs.InputDigest{
			obs.DigestBytes("ssl.log", ssl),
			obs.DigestBytes("x509.log", x509),
		},
		ReportSHA256: obs.SHA256Hex([]byte(reportText)),
		WallNS:       int64(workers) * 1e6, // varies per run; must not leak into the subset
	}
	sub, err := m.DeterministicSubset()
	if err != nil {
		tb.Fatal(err)
	}
	return sub
}

// TestIngestChaosEquivalence is the tentpole contract: seeds × fault plans ×
// core counts, every eventually-successful plan reproduces the fault-free
// report byte for byte, and the injector's records reconcile exactly with
// the registry's fault counters.
func TestIngestChaosEquivalence(t *testing.T) {
	plans := []struct {
		name   string
		faults []resilience.Fault
	}{
		{"fault-free", nil},
		{"read-fault-then-ok", []resilience.Fault{
			{Op: "tail.read", Attempt: 1, Kind: resilience.ReadErr},
		}},
		{"open-fault-then-ok", []resilience.Fault{
			{Op: "tail.open", Attempt: 1, Kind: resilience.OpenErr},
		}},
		{"scattered-read-faults", []resilience.Fault{
			{Op: "tail.read", Attempt: 2, Kind: resilience.ReadErr},
			{Op: "tail.read", Attempt: 5, Kind: resilience.ReadErr},
			{Op: "tail.read", Attempt: 7, Kind: resilience.ShortRead, N: 5},
		}},
		{"open-and-read-faults", []resilience.Fault{
			{Op: "tail.open", Attempt: 2, Kind: resilience.OpenErr},
			{Op: "tail.read", Attempt: 3, Kind: resilience.ReadErr},
			{Op: "tail.read", Attempt: 4, Kind: resilience.ReadErr},
		}},
	}

	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := scenario(t, seed)
			ssl, x509 := replayBytes(t, s, false)
			wantText, wantJS := renderings(t, batchReport(t, newPipeline(s), analysis.FormatTSV, ssl, x509))
			wantSub := runManifest(t, seed, 1, ssl, x509, wantText)

			for _, plan := range plans {
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s/workers%d", plan.name, workers), func(t *testing.T) {
						withProcs(t, workers)
						sslPath, x509Path := writeLogs(t, t.TempDir(), ssl, x509)
						p := resilience.NewPlan(plan.faults...)
						ing := ingest.New(newPipeline(s), ingest.Config{
							SSLPath:  sslPath,
							X509Path: x509Path,
							Window:   analysis.WindowConfig{Interval: giantInterval, Buckets: 4},
							FS:       p.FS("tail", nil),
							Faults:   p,
							Retry:    chaosPolicy(),
						})
						defer ing.Close()

						failed := pollClean(t, ing, p)
						// A second clean poll and the finish, as drain does.
						if err := ing.PollOnce(); err != nil {
							t.Fatalf("re-poll: %v", err)
						}
						if err := ing.Finish(); err != nil {
							t.Fatalf("finish: %v", err)
						}

						gotText, gotJS := renderings(t, ing.Report(0))
						if gotText != wantText {
							t.Errorf("report text diverges from fault-free batch under %s", plan.name)
						}
						if !bytes.Equal(gotJS, wantJS) {
							t.Errorf("report JSON diverges from fault-free batch under %s", plan.name)
						}
						if sub := runManifest(t, seed, workers, ssl, x509, gotText); !bytes.Equal(sub, wantSub) {
							t.Errorf("manifest deterministic subset diverges:\n got %s\nwant %s", sub, wantSub)
						}

						// Injector/registry reconciliation: every planned fault
						// fired, every failing fault failed exactly one poll, and
						// the registry counted exactly the injected faults.
						if p.Pending() != 0 {
							t.Errorf("unplayed faults: %s", p.Describe())
						}
						if failed != p.FailureCount() {
							t.Errorf("failed polls = %d, want %d", failed, p.FailureCount())
						}
						reg := ing.Registry()
						if got := resilience.FaultTotal(reg); got != float64(p.InjectedCount()) {
							t.Errorf("fault counter = %v, want %d", got, p.InjectedCount())
						}

						st := ing.Stats()
						if st.Joiner.Orphans != 0 || st.Joiner.Forced != 0 {
							t.Errorf("lossy join under faults: %+v", st.Joiner)
						}
					})
				}
			}
		})
	}
}

// TestIngestSnapshotWriteRetry pins the snapshot writer's retry path: a
// failing first write is retried, the snapshot lands intact, and the restored
// ingestor reproduces the original report.
func TestIngestSnapshotWriteRetry(t *testing.T) {
	s := scenario(t, 1)
	ssl, x509 := replayBytes(t, s, false)
	dir := t.TempDir()
	sslPath, x509Path := writeLogs(t, dir, ssl, x509)

	p := resilience.NewPlan(
		resilience.Fault{Op: "ingest.snapshot.write", Attempt: 1, Kind: resilience.WriteErr},
	)
	cfg := ingest.Config{
		SSLPath:      sslPath,
		X509Path:     x509Path,
		Window:       analysis.WindowConfig{Interval: giantInterval, Buckets: 4},
		SnapshotPath: filepath.Join(dir, "ingest.snapshot"),
		Faults:       p,
		Retry:        chaosPolicy(),
	}
	ing := ingest.New(newPipeline(s), cfg)
	defer ing.Close()
	// Tail to completion, then snapshot — the daemon's shutdown sequence.
	if err := ing.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if err := ing.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if err := ing.SnapshotToFile(); err != nil {
		t.Fatalf("snapshot must survive a retried write fault: %v", err)
	}
	if p.Pending() != 0 {
		t.Errorf("unplayed faults: %s", p.Describe())
	}
	reg := ing.Registry()
	if got := resilience.RetryTotal(reg); got != 1 {
		t.Errorf("retries = %v, want 1", got)
	}
	if v, ok := reg.Value("resilience_attempts_total", "ingest.snapshot"); !ok || v != 2 {
		t.Errorf("snapshot attempts = %v, want 2", v)
	}

	// Finish the original run for the reference report.
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}
	wantText, _ := renderings(t, ing.Report(0))

	// The retried snapshot restores byte-identically.
	restored, ok, err := ingest.RestoreOrNew(newPipeline(s), cfg)
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	defer restored.Close()
	if err := restored.Finish(); err != nil {
		t.Fatal(err)
	}
	gotText, _ := renderings(t, restored.Report(0))
	if gotText != wantText {
		t.Error("restored report diverges from the snapshotted one")
	}
}

// TestDaemonChaosE2E runs the whole daemon — poll loop, admin surface, final
// snapshot — against a fault plan covering tail reads and the snapshot
// writer. The run must finish cleanly and the snapshot must restore to the
// fault-free report.
func TestDaemonChaosE2E(t *testing.T) {
	s := scenario(t, 1)
	ssl, x509 := replayBytes(t, s, false)
	wantText, _ := renderings(t, batchReport(t, newPipeline(s), analysis.FormatTSV, ssl, x509))

	dir := t.TempDir()
	sslPath, x509Path := writeLogs(t, dir, ssl, x509)
	p := resilience.NewPlan(
		resilience.Fault{Op: "tail.read", Attempt: 1, Kind: resilience.ReadErr},
		resilience.Fault{Op: "tail.read", Attempt: 6, Kind: resilience.ReadErr},
		resilience.Fault{Op: "ingest.snapshot.write", Attempt: 1, Kind: resilience.WriteErr},
	)
	cfg := ingest.Config{
		SSLPath:      sslPath,
		X509Path:     x509Path,
		Window:       analysis.WindowConfig{Interval: giantInterval, Buckets: 4},
		SnapshotPath: filepath.Join(dir, "ingest.snapshot"),
		FS:           p.FS("tail", nil),
		Faults:       p,
		Retry:        chaosPolicy(),
	}
	ing := ingest.New(newPipeline(s), cfg)
	d := ingest.NewDaemon(ing, ingest.DaemonConfig{
		Addr:          "127.0.0.1:0",
		Poll:          5 * time.Millisecond,
		SnapshotEvery: -1,
		ShutdownGrace: 2 * time.Second,
		Retry:         chaosPolicy(),
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

	// Wait until the daemon has drained both tail faults and caught up (zero
	// lag on both logs). The snapshot-write fault stays pending by design —
	// it can only play during the shutdown snapshot.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var health struct {
			SSLTail  ingest.TailStats `json:"ssl_tail"`
			X509Tail ingest.TailStats `json:"x509_tail"`
			Joiner   struct {
				Joined int64 `json:"joined"`
			} `json:"joiner"`
		}
		if err := json.Unmarshal(httpGet(t, base+"/healthz"), &health); err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		if health.Joiner.Joined > 0 && health.SSLTail.LagBytes == 0 && health.X509Tail.LagBytes == 0 &&
			health.SSLTail.Offset > 0 && health.X509Tail.Offset > 0 && p.Pending() == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if p.Pending() != 1 {
		t.Fatalf("tail faults never drained: pending=%d of plan %s", p.Pending(), p.Describe())
	}

	// The injected-fault counters are visible on the admin surface.
	if metrics := string(httpGet(t, base+"/metrics")); !strings.Contains(metrics, "resilience_faults_injected_total") {
		t.Error("/metrics does not expose the fault counters")
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v under a drained fault plan", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// Reconciliation: the shutdown snapshot played the last fault; the
	// registry's fault counter equals the injector's record, and the poll
	// retries match the failing tail faults.
	if p.Pending() != 0 {
		t.Errorf("unplayed faults after shutdown: pending=%d", p.Pending())
	}
	reg := ing.Registry()
	if got := resilience.FaultTotal(reg); got != float64(p.InjectedCount()) {
		t.Errorf("fault counter = %v, want %d", got, p.InjectedCount())
	}
	if v, ok := reg.Value("resilience_retries_total", "ingest.poll"); !ok || v != 2 {
		t.Errorf("poll retries = %v (ok=%v), want 2", v, ok)
	}
	if v, ok := reg.Value("resilience_retries_total", "ingest.snapshot"); !ok || v != 1 {
		t.Errorf("snapshot retries = %v (ok=%v), want 1", v, ok)
	}

	// The final (retried) snapshot restores to the fault-free batch report.
	restored, ok, err := ingest.RestoreOrNew(newPipeline(s), cfg)
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	defer restored.Close()
	if err := restored.Finish(); err != nil {
		t.Fatal(err)
	}
	gotText, _ := renderings(t, restored.Report(0))
	if gotText != wantText {
		t.Error("restored chaos-run report diverges from the fault-free batch report")
	}
}

// Package ingest is the streaming counterpart of the batch pipeline: a
// long-running daemon core that tails live Zeek ssl.log / x509.log files,
// joins the two streams incrementally, re-aggregates joined connections into
// per-window observations, and folds closed windows into a
// analysis.WindowRing for on-demand "last hour / last day / all time"
// reports.
//
// Determinism carries through from the layers below: the tailers surface the
// files' contents regardless of poll timing, the incremental joiner emits
// connections in ssl.log order independent of how polls interleave the two
// files, windows are keyed by log time (never wall time), and the ring's
// merge contract makes fold partitioning invisible. With a window wider than
// the capture, the daemon's final report is byte-identical to the batch
// pipeline over the same files — the equivalence suite enforces this,
// including across snapshot/restore restarts.
//
// This package is the one place in the repository allowed to consult the
// wall clock (snapshot age, poll pacing); everything it feeds downstream is
// keyed by log time.
package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/obs"
	"certchains/internal/resilience"
	"certchains/internal/zeek"
)

// Config wires an Ingestor to its log files and sizes its state.
type Config struct {
	// SSLPath and X509Path are the live Zeek logs to tail.
	SSLPath, X509Path string
	// JSON selects ND-JSON logs instead of TSV.
	JSON bool
	// Window sizes the analysis ring (interval, live depth).
	Window analysis.WindowConfig
	// CertCap / PendingCap bound the incremental joiner (0 = defaults,
	// negative = unbounded).
	CertCap, PendingCap int
	// SnapshotPath, when set, is where SnapshotToFile persists state.
	SnapshotPath string
	// FS is the filesystem the tailers read through (nil = the real one);
	// chaos tests layer a fault plan here.
	FS resilience.FS
	// Faults, when set, injects faults into the snapshot writer.
	Faults *resilience.Plan
	// Retry is the snapshot-write retry budget; the zero value writes once.
	Retry resilience.Policy
	// AccessLog, when set, receives one record per admin-surface request
	// (route, method, code, bytes). Latency lives in the registry's
	// histograms, not the log line.
	AccessLog *slog.Logger
}

// Ingestor owns the tail → join → aggregate → ring chain. All methods are
// safe for concurrent use (one mutex guards the whole chain; the admin
// surface reads under the same lock).
type Ingestor struct {
	mu  sync.Mutex
	cfg Config
	p   *analysis.Pipeline

	sslTail  *zeek.Tailer
	x509Tail *zeek.Tailer
	joiner   *zeek.IncrementalJoiner
	agg      *aggregator
	ring     *analysis.WindowRing

	// wm is the join watermark: the largest connection timestamp emitted.
	// Windows whose end it has passed are complete and fold into the ring.
	wm    time.Time
	wmSet bool

	// recordErrs counts records the tailers decoded but the join layer
	// rejected (bad field values); the daemon outlives them.
	recordErrs int64
	// foldedWindows counts windows folded into the ring.
	foldedWindows int64

	snapshots    int64
	lastSnapshot time.Time
	startedAt    time.Time

	// reg is the shared metrics registry behind /metrics and /healthz,
	// refreshed from a Stats snapshot on every scrape.
	reg *obs.Registry
	// resMetrics books retry and injected-fault counters into reg.
	resMetrics *resilience.Metrics
}

// New creates an Ingestor over fresh state.
func New(p *analysis.Pipeline, cfg Config) *Ingestor {
	ring := analysis.NewWindowRing(p, cfg.Window)
	cfg.Window = ring.Config()
	ing := &Ingestor{
		cfg:       cfg,
		p:         p,
		ring:      ring,
		agg:       newAggregator(),
		startedAt: time.Now(),
		reg:       obs.NewRegistry(),
	}
	obs.RegisterBuildInfo(ing.reg, "certchain-ingestd")
	ing.resMetrics = resilience.NewMetrics(ing.reg)
	cfg.Faults.SetMetrics(ing.resMetrics)
	ing.joiner = zeek.NewIncrementalJoiner(cfg.CertCap, cfg.PendingCap, ing.observeConn)
	ing.joiner.SetTracer(p.Tracer)
	ing.sslTail = zeek.NewTailerFS(cfg.SSLPath, ing.newDecoder, cfg.FS)
	ing.x509Tail = zeek.NewTailerFS(cfg.X509Path, ing.newDecoder, cfg.FS)
	return ing
}

func (ing *Ingestor) newDecoder() zeek.LineDecoder {
	if ing.cfg.JSON {
		return zeek.NewJSONDecoder()
	}
	return zeek.NewTSVDecoder()
}

// observeConn is the joiner's emit callback (called under ing.mu).
func (ing *Ingestor) observeConn(c *zeek.Connection) error {
	ing.agg.add(ing.ring.Index(c.SSL.TS), c)
	if !ing.wmSet || c.SSL.TS.After(ing.wm) {
		ing.wm, ing.wmSet = c.SSL.TS, true
	}
	return nil
}

// PollOnce reads everything appended to both logs since the last poll,
// advances the join, and folds any windows the watermark has completed.
// Certificates are polled first so the watermark is as fresh as possible
// when connections drain.
func (ing *Ingestor) PollOnce() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if err := ing.x509Tail.Poll(ing.feedX509); err != nil {
		return err
	}
	if err := ing.sslTail.Poll(ing.feedSSL); err != nil {
		return err
	}
	ing.foldReady(false)
	return nil
}

// feedX509 / feedSSL push decoded records into the joiner, absorbing
// record-level parse failures (a daemon must outlive one bad row).
func (ing *Ingestor) feedX509(rec zeek.Record) error {
	if err := ing.joiner.AddX509Record(rec); err != nil {
		ing.recordErrs++
	}
	return nil
}

func (ing *Ingestor) feedSSL(rec zeek.Record) error {
	if err := ing.joiner.AddSSLRecord(rec); err != nil {
		ing.recordErrs++
	}
	return nil
}

// Finish declares both streams complete: dangling partial lines are flushed,
// every held connection drains against the final certificate index, and all
// open windows fold. Used at daemon shutdown when the capture has ended (the
// logs carried #close) and by the equivalence tests; a daemon that will
// resume later snapshots instead.
func (ing *Ingestor) Finish() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if err := ing.x509Tail.Finish(ing.feedX509); err != nil {
		return err
	}
	if err := ing.sslTail.Finish(ing.feedSSL); err != nil {
		return err
	}
	if err := ing.joiner.Finish(); err != nil {
		return err
	}
	ing.foldReady(true)
	return nil
}

// foldReady folds completed windows (all when force) into the ring, in
// window order, preserving first-seen observation order within each window —
// the same order the batch loader emits.
func (ing *Ingestor) foldReady(force bool) {
	obs, n := ing.agg.closeReady(ing.ring.Index(ing.wm), ing.wmSet, force)
	if n > 0 {
		ing.ring.ObserveBatch(obs)
		ing.foldedWindows += int64(n)
	}
}

// Report renders the trailing window (<= 0 means all time). Open, not yet
// folded aggregates are included as provisional observations so the current
// interval is visible live.
func (ing *Ingestor) Report(window time.Duration) *analysis.Report {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.ring.ReportWith(ing.agg.provisional(), window)
}

// Closed reports whether both tailed streams have announced their end.
func (ing *Ingestor) Closed() bool {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.sslTail.Closed() && ing.x509Tail.Closed()
}

// SnapshotSchema and SnapshotVersion stamp the daemon's persisted state
// file. Restore refuses anything else with a typed *certmodel.SchemaError:
// before the envelope, a daemon restarted against a snapshot from a
// different codec revision would silently decode whatever fields still
// lined up and drop the rest.
const (
	SnapshotSchema  = "certchains/ingest-state"
	SnapshotVersion = 1
)

// snapshotFile is the daemon's full persisted state.
type snapshotFile struct {
	SSLTail   zeek.TailState               `json:"ssl_tail"`
	X509Tail  zeek.TailState               `json:"x509_tail"`
	Joiner    *zeek.JoinerState            `json:"joiner"`
	Agg       *aggSnapshot                 `json:"agg"`
	Ring      *analysis.WindowRingSnapshot `json:"ring"`
	WM        certmodel.TimeSnapshot       `json:"wm"`
	WMSet     bool                         `json:"wm_set,omitempty"`
	RecErrs   int64                        `json:"record_errs,omitempty"`
	Folded    int64                        `json:"folded_windows,omitempty"`
	SavedUnix int64                        `json:"saved_unix,omitempty"`
}

// Snapshot serializes the complete ingest state: tail positions, join
// buffer, open aggregates, and the analysis ring. The state is captured at a
// line boundary (tailer offsets never point mid-record), so a restored
// daemon resumes exactly where this one stopped without re-reading history.
func (ing *Ingestor) Snapshot() ([]byte, error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	s := &snapshotFile{
		SSLTail:   ing.sslTail.State(),
		X509Tail:  ing.x509Tail.State(),
		Joiner:    ing.joiner.State(),
		Agg:       ing.agg.snapshot(),
		Ring:      ing.ring.Snapshot(),
		WMSet:     ing.wmSet,
		RecErrs:   ing.recordErrs,
		Folded:    ing.foldedWindows,
		SavedUnix: time.Now().Unix(),
	}
	if ing.wmSet {
		s.WM = certmodel.SnapTime(ing.wm)
	}
	return certmodel.Seal(SnapshotSchema, SnapshotVersion, s)
}

// SnapshotToFile writes the snapshot atomically (temp file + rename) to
// cfg.SnapshotPath, retrying transient write failures within cfg.Retry's
// budget. The atomicity means a failed attempt leaves no partial snapshot:
// each retry starts a fresh temp file and the rename only happens after a
// complete write.
func (ing *Ingestor) SnapshotToFile() error {
	if ing.cfg.SnapshotPath == "" {
		return fmt.Errorf("ingest: no snapshot path configured")
	}
	data, err := ing.Snapshot()
	if err != nil {
		return err
	}
	if _, err := ing.cfg.Retry.WithMetrics(ing.resMetrics).Do(context.Background(), "ingest.snapshot",
		func(context.Context) error { return ing.writeSnapshot(data) }); err != nil {
		return err
	}
	ing.mu.Lock()
	ing.snapshots++
	ing.lastSnapshot = time.Now()
	ing.mu.Unlock()
	return nil
}

// writeSnapshot is one atomic write attempt; cfg.Faults can fail the data
// write mid-file (the temp file is discarded, so the fault never reaches
// the real snapshot).
func (ing *Ingestor) writeSnapshot(data []byte) error {
	dir := filepath.Dir(ing.cfg.SnapshotPath)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	var w io.Writer = tmp
	w = ing.cfg.Faults.Writer("ingest.snapshot.write", w)
	if _, err := w.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), ing.cfg.SnapshotPath); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Restore rebuilds an Ingestor from Snapshot output. A snapshot written by
// a different codec revision (or with no envelope at all) is rejected with
// a *certmodel.SchemaError rather than part-decoded.
func Restore(p *analysis.Pipeline, cfg Config, data []byte) (*Ingestor, error) {
	payload, err := certmodel.Open(data, SnapshotSchema, SnapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("ingest: snapshot: %w", err)
	}
	var s snapshotFile
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("ingest: decode snapshot: %w", err)
	}
	ring, err := analysis.RestoreWindowRing(p, cfg.Window, s.Ring)
	if err != nil {
		return nil, err
	}
	cfg.Window = ring.Config()
	agg, err := restoreAggregator(s.Agg)
	if err != nil {
		return nil, err
	}
	ing := &Ingestor{
		cfg:           cfg,
		p:             p,
		ring:          ring,
		agg:           agg,
		recordErrs:    s.RecErrs,
		foldedWindows: s.Folded,
		startedAt:     time.Now(),
		reg:           obs.NewRegistry(),
	}
	obs.RegisterBuildInfo(ing.reg, "certchain-ingestd")
	ing.resMetrics = resilience.NewMetrics(ing.reg)
	cfg.Faults.SetMetrics(ing.resMetrics)
	if s.WMSet {
		ing.wm, ing.wmSet = s.WM.Time(), true
	}
	ing.joiner = zeek.NewIncrementalJoiner(cfg.CertCap, cfg.PendingCap, ing.observeConn)
	ing.joiner.SetTracer(p.Tracer)
	if err := ing.joiner.RestoreState(s.Joiner); err != nil {
		return nil, err
	}
	ing.sslTail = zeek.NewTailerFS(cfg.SSLPath, ing.newDecoder, cfg.FS)
	ing.sslTail.Restore(s.SSLTail)
	ing.x509Tail = zeek.NewTailerFS(cfg.X509Path, ing.newDecoder, cfg.FS)
	ing.x509Tail.Restore(s.X509Tail)
	return ing, nil
}

// RestoreOrNew restores from cfg.SnapshotPath when the file exists, else
// starts fresh.
func RestoreOrNew(p *analysis.Pipeline, cfg Config) (*Ingestor, bool, error) {
	if cfg.SnapshotPath != "" {
		if data, err := os.ReadFile(cfg.SnapshotPath); err == nil {
			ing, err := Restore(p, cfg, data)
			if err != nil {
				return nil, false, err
			}
			return ing, true, nil
		}
	}
	return New(p, cfg), false, nil
}

// Close releases the tailers' file handles.
func (ing *Ingestor) Close() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	err := ing.sslTail.Close()
	if err2 := ing.x509Tail.Close(); err == nil {
		err = err2
	}
	return err
}

// --- windowed re-aggregation -------------------------------------------

// aggregator buckets joined connections by log-time window, one
// analysis.Reduction per open window, and closes a window once the join
// watermark passes its end.
type aggregator struct {
	windows map[int64]*analysis.Reduction
	order   []int64 // ascending open-window indexes

	// maxFolded guards against out-of-order stragglers: a connection landing
	// in an already-folded window re-opens it (counted) and the straggler
	// observation folds separately rather than corrupting history.
	maxFolded  int64
	foldedAny  bool
	lateConns  int64
	totalConns int64
}

func newAggregator() *aggregator {
	return &aggregator{windows: make(map[int64]*analysis.Reduction)}
}

func (g *aggregator) window(idx int64) *analysis.Reduction {
	if r, ok := g.windows[idx]; ok {
		return r
	}
	r := analysis.NewReduction()
	g.windows[idx] = r
	pos := sort.Search(len(g.order), func(i int) bool { return g.order[i] >= idx })
	g.order = append(g.order, 0)
	copy(g.order[pos+1:], g.order[pos:])
	g.order[pos] = idx
	return r
}

// add folds one joined connection into window idx.
func (g *aggregator) add(idx int64, c *zeek.Connection) {
	g.totalConns++
	if g.foldedAny && idx <= g.maxFolded {
		g.lateConns++
	}
	g.window(idx).Add(c)
}

// closeReady removes and returns the observations of every window that ends
// at or before window wmIdx, the watermark's (all open windows when force),
// ascending by window then first-seen. n is the number of windows closed.
func (g *aggregator) closeReady(wmIdx int64, wmSet, force bool) (obs []*campus.Observation, n int) {
	var remaining []int64
	for _, idx := range g.order {
		if !force && (!wmSet || wmIdx <= idx) {
			remaining = append(remaining, idx)
			continue
		}
		obs = append(obs, g.windows[idx].Observations()...)
		delete(g.windows, idx)
		if !g.foldedAny || idx > g.maxFolded {
			g.maxFolded, g.foldedAny = idx, true
		}
		n++
	}
	g.order = remaining
	return obs, n
}

// provisional returns copies of every still-open observation, ascending by
// window then first-seen, without closing anything.
func (g *aggregator) provisional() []*campus.Observation {
	var obs []*campus.Observation
	for _, idx := range g.order {
		obs = append(obs, g.windows[idx].Observations()...)
	}
	return obs
}

// openCount is the number of open observations across all windows.
func (g *aggregator) openCount() int {
	n := 0
	for _, r := range g.windows {
		n += r.Len()
	}
	return n
}

// --- aggregator snapshot ------------------------------------------------

type aggSnapshot struct {
	Windows   []aggWindowSnap          `json:"windows,omitempty"`
	Certs     []certmodel.MetaSnapshot `json:"certs,omitempty"`
	MaxFolded int64                    `json:"max_folded,omitempty"`
	FoldedAny bool                     `json:"folded_any,omitempty"`
	LateConns int64                    `json:"late_conns,omitempty"`
	Total     int64                    `json:"total_conns,omitempty"`
}

type aggWindowSnap struct {
	Idx  int64     `json:"idx"`
	Aggs []aggSnap `json:"aggs"`
}

// aggSnap serializes one open observation; the chain is referenced by
// fingerprint key against the snapshot's certificate table.
type aggSnap struct {
	ChainKey    string                 `json:"chain,omitempty"`
	ServerIP    string                 `json:"server_ip"`
	Port        int                    `json:"port"`
	Domain      string                 `json:"domain,omitempty"`
	First       certmodel.TimeSnapshot `json:"first"`
	Last        certmodel.TimeSnapshot `json:"last"`
	Conns       int64                  `json:"conns"`
	Established int64                  `json:"established,omitempty"`
	NoSNI       int64                  `json:"no_sni,omitempty"`
	TLS13       bool                   `json:"tls13,omitempty"`
	ClientIPs   []string               `json:"client_ips,omitempty"`
}

func (g *aggregator) snapshot() *aggSnapshot {
	s := &aggSnapshot{
		MaxFolded: g.maxFolded,
		FoldedAny: g.foldedAny,
		LateConns: g.lateConns,
		Total:     g.totalConns,
	}
	certs := make(map[string]*certmodel.Meta)
	for _, idx := range g.order {
		ws := aggWindowSnap{Idx: idx}
		for _, o := range g.windows[idx].Observations() {
			for _, m := range o.Chain {
				certs[string(m.FP)] = m
			}
			ws.Aggs = append(ws.Aggs, aggSnap{
				ChainKey:    o.Chain.Key(),
				ServerIP:    o.ServerIP,
				Port:        o.Port,
				Domain:      o.Domain,
				First:       certmodel.SnapTime(o.First),
				Last:        certmodel.SnapTime(o.Last),
				Conns:       o.Conns,
				Established: o.Established,
				NoSNI:       o.NoSNI,
				TLS13:       o.TLS13,
				ClientIPs:   o.ClientIPs,
			})
		}
		s.Windows = append(s.Windows, ws)
	}
	fps := make([]string, 0, len(certs))
	for fp := range certs {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		s.Certs = append(s.Certs, certs[fp].Snapshot())
	}
	return s
}

func restoreAggregator(s *aggSnapshot) (*aggregator, error) {
	g := newAggregator()
	if s == nil {
		return g, nil
	}
	g.maxFolded, g.foldedAny = s.MaxFolded, s.FoldedAny
	g.lateConns, g.totalConns = s.LateConns, s.Total
	table := make(map[certmodel.Fingerprint]*certmodel.Meta, len(s.Certs))
	for _, ms := range s.Certs {
		m := ms.Meta()
		table[m.FP] = m
	}
	resolve := func(fp certmodel.Fingerprint) *certmodel.Meta { return table[fp] }
	for _, ws := range s.Windows {
		r := g.window(ws.Idx)
		for _, as := range ws.Aggs {
			ch, err := analysis.ChainFromKey(as.ChainKey, resolve)
			if err != nil {
				return nil, err
			}
			r.Restore(&campus.Observation{
				Chain:       ch,
				ServerIP:    as.ServerIP,
				Port:        as.Port,
				Domain:      as.Domain,
				First:       as.First.Time(),
				Last:        as.Last.Time(),
				Conns:       as.Conns,
				Established: as.Established,
				NoSNI:       as.NoSNI,
				TLS13:       as.TLS13,
				ClientIPs:   as.ClientIPs,
			})
		}
	}
	return g, nil
}

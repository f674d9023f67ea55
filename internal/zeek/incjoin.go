package zeek

import (
	"fmt"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/obs"
)

// IncrementalJoiner joins the two live log streams — ssl.log connections and
// x509.log certificates — as records arrive, without reading either file to
// the end first (the batch Join cannot start until x509.log is complete).
//
// Determinism is the design constraint: the daemon's analysis must not depend
// on how poll cycles interleave the two files. The joiner therefore emits
// connections strictly in ssl.log record order, and a connection is released
// only once the x509 watermark — the largest certificate timestamp consumed
// so far — has passed the connection's own timestamp. Zeek logs a chain's
// certificates at the moment of the handshake, so once the x509 stream has
// moved beyond time t, every certificate belonging to a connection at time t
// has either been seen or will never arrive. Both the emission order and the
// drop/emit decision for every connection are thus functions of the two
// files' contents alone, never of poll timing.
//
// Connections whose chain references a certificate that has not arrived by
// drain time are dropped and counted as orphans — the streaming analogue of
// the per-row join errors the batch loader tolerates across x509 rotation
// gaps.
type IncrementalJoiner struct {
	emit func(*Connection) error

	// certs indexes certificates by file-unique id; fifo remembers insertion
	// order so the index can be bounded (satellite: orphaned fuids must not
	// leak memory — without a cap, every certificate ever logged would stay
	// resident for the daemon's lifetime).
	certs   map[string]*certmodel.Meta
	fifo    []string
	certCap int

	// pending is the FIFO hold queue of ssl records waiting for the x509
	// watermark. pendingCap is a pathology valve: a stream that stops
	// advancing the watermark (e.g. x509.log goes silent while ssl.log keeps
	// growing) would otherwise hold connections forever.
	pending    []*SSLRecord
	pendingCap int

	wm       time.Time
	wmSet    bool
	finished bool

	stats  JoinerStats
	tracer *obs.Tracer
}

// JoinerStats are the joiner's observable counters, all monotone.
type JoinerStats struct {
	SSLRecords  int64 `json:"ssl_records"`
	X509Records int64 `json:"x509_records"`
	Joined      int64 `json:"joined"`
	// Orphans counts connections dropped because a referenced certificate
	// never arrived before their drain point.
	Orphans int64 `json:"orphans,omitempty"`
	// Evictions counts certificates dropped from the bounded index.
	Evictions int64 `json:"evictions,omitempty"`
	// DupCerts counts re-logged certificate ids (first record wins, as in the
	// batch index).
	DupCerts int64 `json:"dup_certs,omitempty"`
	// Forced counts connections drained early by the pending-queue cap; any
	// nonzero value means the watermark guarantee was overridden.
	Forced int64 `json:"forced,omitempty"`
}

// JoinerState is the joiner's full serializable state for daemon snapshots.
type JoinerState struct {
	WM      certmodel.TimeSnapshot   `json:"wm"`
	WMSet   bool                     `json:"wm_set,omitempty"`
	Certs   []certmodel.MetaSnapshot `json:"certs,omitempty"` // insertion order
	Pending []*SSLRecord             `json:"pending,omitempty"`
	Stats   JoinerStats              `json:"stats"`
}

// DefaultCertCap bounds the certificate index. Campus traffic re-references
// the same certificates heavily, so a six-figure cap holds the working set
// with room to spare while keeping worst-case memory flat.
const DefaultCertCap = 1 << 18

// DefaultPendingCap bounds the hold queue of not-yet-drained connections.
const DefaultPendingCap = 1 << 16

// NewIncrementalJoiner creates a joiner emitting joined connections through
// emit. certCap / pendingCap of 0 select the defaults; negative values mean
// unbounded.
func NewIncrementalJoiner(certCap, pendingCap int, emit func(*Connection) error) *IncrementalJoiner {
	if certCap == 0 {
		certCap = DefaultCertCap
	}
	if pendingCap == 0 {
		pendingCap = DefaultPendingCap
	}
	return &IncrementalJoiner{
		emit:       emit,
		certs:      make(map[string]*certmodel.Meta),
		certCap:    certCap,
		pendingCap: pendingCap,
	}
}

// AddSSL feeds the next ssl.log record (in file order).
func (j *IncrementalJoiner) AddSSL(r *SSLRecord) error {
	j.stats.SSLRecords++
	j.pending = append(j.pending, r)
	return j.drain()
}

// AddX509 feeds the next x509.log record (in file order). Zeek writes
// x509.log in timestamp order, so each record advances the watermark
// monotonically; an out-of-order record only delays draining, never breaks
// correctness.
func (j *IncrementalJoiner) AddX509(r *X509Record) error {
	j.stats.X509Records++
	if _, dup := j.certs[r.ID]; dup {
		j.stats.DupCerts++
	} else {
		m, err := r.ToMeta()
		if err != nil {
			return err
		}
		j.certs[r.ID] = m
		j.fifo = append(j.fifo, r.ID)
		if j.certCap > 0 && len(j.fifo) > j.certCap {
			old := j.fifo[0]
			j.fifo = j.fifo[1:]
			delete(j.certs, old)
			j.stats.Evictions++
		}
	}
	if !j.wmSet || r.TS.After(j.wm) {
		j.wm = r.TS
		j.wmSet = true
	}
	return j.drain()
}

// AddSSLRecord parses and feeds a generic ssl.log record.
func (j *IncrementalJoiner) AddSSLRecord(rec Record) error {
	r, err := ParseSSLRecord(rec)
	if err != nil {
		return err
	}
	return j.AddSSL(r)
}

// AddX509Record parses and feeds a generic x509.log record.
func (j *IncrementalJoiner) AddX509Record(rec Record) error {
	r, err := ParseX509Record(rec)
	if err != nil {
		return err
	}
	return j.AddX509(r)
}

// SetTracer attaches a stage tracer; Finish then records a "join-finish"
// span covering the final drain. A nil tracer is the no-op default.
func (j *IncrementalJoiner) SetTracer(t *obs.Tracer) { j.tracer = t }

// Finish declares both streams complete (both files carried #close, or the
// daemon is shutting down) and drains every held connection against the
// final certificate index.
func (j *IncrementalJoiner) Finish() error {
	sp := j.tracer.Start("join-finish", "join/finish").
		SetRecords(int64(len(j.pending))).
		Arg("cert_index", int64(len(j.certs)))
	defer sp.End()
	j.finished = true
	return j.drain()
}

// drain releases the front of the hold queue while the watermark (or stream
// completion, or the capacity valve) allows.
func (j *IncrementalJoiner) drain() error {
	for len(j.pending) > 0 {
		forced := j.pendingCap > 0 && len(j.pending) > j.pendingCap
		if !j.finished && !forced && !(j.wmSet && j.pending[0].TS.Before(j.wm)) {
			return nil
		}
		r := j.pending[0]
		j.pending[0] = nil
		j.pending = j.pending[1:]
		if forced {
			j.stats.Forced++
		}
		chain := make(certmodel.Chain, 0, len(r.CertChainFUIDs))
		complete := true
		for _, fuid := range r.CertChainFUIDs {
			m, ok := j.certs[fuid]
			if !ok {
				complete = false
				break
			}
			chain = append(chain, m)
		}
		if !complete {
			j.stats.Orphans++
			continue
		}
		j.stats.Joined++
		if err := j.emit(&Connection{SSL: r, Chain: chain}); err != nil {
			return err
		}
	}
	return nil
}

// PendingDepth is the current hold-queue length.
func (j *IncrementalJoiner) PendingDepth() int { return len(j.pending) }

// CertIndexSize is the current certificate-index size.
func (j *IncrementalJoiner) CertIndexSize() int { return len(j.certs) }

// Stats returns the counters.
func (j *IncrementalJoiner) Stats() JoinerStats { return j.stats }

// State serializes the joiner for a daemon snapshot.
func (j *IncrementalJoiner) State() *JoinerState {
	s := &JoinerState{
		WM:      certmodel.SnapTime(j.wm),
		WMSet:   j.wmSet,
		Pending: j.pending,
		Stats:   j.stats,
	}
	for _, id := range j.fifo {
		s.Certs = append(s.Certs, j.certs[id].Snapshot())
	}
	return s
}

// RestoreState reinstates a snapshotted joiner. Must be called on a fresh
// joiner before any records are fed.
func (j *IncrementalJoiner) RestoreState(s *JoinerState) error {
	if s == nil {
		return nil
	}
	if len(j.fifo) > 0 || len(j.pending) > 0 {
		return fmt.Errorf("zeek: joiner restore on a non-empty joiner")
	}
	for i, r := range s.Pending {
		if r == nil {
			return fmt.Errorf("zeek: joiner restore: pending record %d is null", i)
		}
	}
	if s.WMSet {
		j.wm, j.wmSet = s.WM.Time(), true
	}
	for _, ms := range s.Certs {
		m := ms.Meta()
		j.certs[string(m.FP)] = m
		j.fifo = append(j.fifo, string(m.FP))
	}
	j.pending = append(j.pending, s.Pending...)
	j.stats = s.Stats
	return nil
}

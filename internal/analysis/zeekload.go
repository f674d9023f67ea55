package analysis

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"time"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/zeek"
)

// Format selects the Zeek on-disk log format.
type Format int

const (
	// FormatTSV is Zeek's default tab-separated ASCII format.
	FormatTSV Format = iota
	// FormatJSON is Zeek's ND-JSON format (LogAscii::use_json=T).
	FormatJSON
)

// Load re-aggregates Zeek ssl.log / x509.log streams (TSV format) into the
// observation model the pipeline consumes: one observation per (delivered
// chain, server endpoint), with connection, establishment, SNI and
// client-IP aggregates — the same reduction the paper performs over its
// twelve months of logs.
func Load(ssl, x509 io.Reader) ([]*campus.Observation, error) {
	return LoadFormat(FormatTSV, ssl, x509)
}

// maybeGunzip wraps a reader with a gzip decoder when the stream starts
// with the gzip magic — Zeek deployments rotate logs compressed.
func maybeGunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil {
		// Short or empty stream: hand it through; downstream readers
		// produce their own EOF handling.
		return br, nil
	}
	if magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("analysis: gzip: %w", err)
		}
		return gz, nil
	}
	return br, nil
}

// LoadFormat is Load with an explicit log format. Gzip-compressed streams
// are detected and decompressed transparently.
func LoadFormat(format Format, ssl, x509 io.Reader) ([]*campus.Observation, error) {
	var out []*campus.Observation
	err := LoadFormatFunc(format, ssl, x509, func(o *campus.Observation) error {
		out = append(out, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoadFormatFunc is the streaming form of LoadFormat: instead of
// materializing one giant observation slice, it hands each aggregated
// observation to emit, in first-seen (chain, server endpoint) order — the
// producer side of Pipeline.RunStream. Aggregation still requires the full
// join pass (an observation's counters close only at end of stream), but the
// observations themselves flow straight into the consumer.
//
// The join runs block-parallel (zeek.FoldBlocks): every worker folds its
// block's rows into a Reduction, and the block reductions merge here in file
// order, so the observations, their order and every error are those of one
// serial pass over the file.
func LoadFormatFunc(format Format, ssl, x509 io.Reader, emit func(*campus.Observation) error) error {
	var err error
	if ssl, err = maybeGunzip(ssl); err != nil {
		return err
	}
	if x509, err = maybeGunzip(x509); err != nil {
		return err
	}
	l := loader{byKey: make(map[string]int)}
	fold := zeek.BlockFold[*Reduction]{New: NewReduction, Fold: (*Reduction).fold, Merge: l.merge}
	if format == FormatJSON {
		err = zeek.FoldBlocksJSON(ssl, x509, fold)
	} else {
		err = zeek.FoldBlocks(ssl, x509, fold)
	}
	if err != nil {
		return err
	}
	for _, g := range l.order {
		g.compactIPs()
		if err := emit(g.o); err != nil {
			return err
		}
	}
	return nil
}

// rowKey identifies a row's observation cheaply. A block worker's chains
// are canonical, so the first element's address stands for the whole chain;
// the daemon's joiner builds every chain afresh, so there a non-empty chain
// never matches the previous row's. nil is the empty chain. Equal rowKeys
// mean equal content keys.
type rowKey struct {
	chain *(*certmodel.Meta)
	respH string
	port  int
}

// blockEntry is one observation's aggregate over a Reduction's rows.
type blockEntry struct {
	key string // (chain, server endpoint) content key, as merged across blocks
	o   *campus.Observation
}

// Reduction is the connection→observation reduction the paper performs
// over its logs: joined connections fold into one observation per
// (delivered chain, server endpoint), in first-seen order, with connection,
// establishment, SNI and client-IP aggregates. The batch loader runs one per
// file block; the ingest daemon keeps one per open log-time window. A
// Reduction owns everything it points to and is not safe for concurrent use.
type Reduction struct {
	entries []blockEntry
	byKey   map[string]int32 // content key → entry
	// ips holds an entry's client IPs past its first smallIPs, which a
	// linear scan covers.
	ips    map[ipKey]struct{}
	keyBuf []byte
	// last memoizes the previous row's entry: one server's connections
	// tend to arrive together, and a hit skips building the content key.
	last    rowKey
	lastIdx int32
}

const smallIPs = 8

type ipKey struct {
	entry int32
	ip    string
}

// NewReduction returns an empty reduction.
func NewReduction() *Reduction {
	return &Reduction{
		byKey:   make(map[string]int32),
		ips:     make(map[ipKey]struct{}),
		lastIdx: -1,
	}
}

// fold folds one joined row. Per-row join gaps (x509 rotation) are
// tolerated like real log pipelines tolerate them: the row is dropped.
func (a *Reduction) fold(c *zeek.Connection, rowErr error) {
	if rowErr != nil {
		return
	}
	r := c.SSL
	k := rowKey{respH: r.RespH, port: r.RespP}
	if len(c.Chain) > 0 {
		k.chain = &c.Chain[0]
	}
	i := a.lastIdx
	if k != a.last || i < 0 {
		i = a.entry(c)
		a.last, a.lastIdx = k, i
	}
	o := a.entries[i].o
	o.Conns++
	if r.Established {
		o.Established++
	}
	if r.ServerName == "" {
		o.NoSNI++
	} else if o.Domain == "" {
		o.Domain = r.ServerName
	}
	if len(c.Chain) == 0 {
		o.TLS13 = true
	}
	if r.TS.Before(o.First) {
		o.First = r.TS
	}
	if r.TS.After(o.Last) {
		o.Last = r.TS
	}
	a.addIP(o, i, r.OrigH)
}

// addIP adds ip to entry i's client IPs unless the reduction has seen it.
func (a *Reduction) addIP(o *campus.Observation, i int32, ip string) {
	small := o.ClientIPs[:min(len(o.ClientIPs), smallIPs)]
	for _, s := range small {
		if s == ip {
			return
		}
	}
	if len(small) == smallIPs {
		k := ipKey{i, ip}
		if _, seen := a.ips[k]; seen {
			return
		}
		a.ips[k] = struct{}{}
	}
	o.ClientIPs = append(o.ClientIPs, ip)
}

// entry returns the entry for a row's content key, opening one on the
// key's first row in the reduction.
func (a *Reduction) entry(c *zeek.Connection) int32 {
	a.keyBuf = c.Chain.AppendKey(a.keyBuf[:0])
	a.keyBuf = append(a.keyBuf, '|')
	a.keyBuf = append(a.keyBuf, c.SSL.RespH...)
	a.keyBuf = append(a.keyBuf, '|')
	a.keyBuf = strconv.AppendInt(a.keyBuf, int64(c.SSL.RespP), 10)
	if i, ok := a.byKey[string(a.keyBuf)]; ok {
		return i
	}
	i := int32(len(a.entries))
	key := string(a.keyBuf)
	a.byKey[key] = i
	a.entries = append(a.entries, blockEntry{key: key, o: &campus.Observation{
		Chain:    c.Chain,
		ServerIP: c.SSL.RespH,
		Port:     c.SSL.RespP,
		First:    c.SSL.TS,
		Last:     c.SSL.TS,
	}})
	return i
}

// Add folds one joined connection.
func (a *Reduction) Add(c *zeek.Connection) { a.fold(c, nil) }

// Len is the number of observations the reduction holds.
func (a *Reduction) Len() int { return len(a.entries) }

// Observations returns copies of the reduction's observations in
// first-seen order, client IPs sorted, as the batch loader emits them. The
// reduction itself is left unchanged and can keep folding.
func (a *Reduction) Observations() []*campus.Observation {
	out := make([]*campus.Observation, len(a.entries))
	for i, e := range a.entries {
		o := *e.o
		o.ClientIPs = slices.Clone(o.ClientIPs)
		sort.Strings(o.ClientIPs)
		out[i] = &o
	}
	return out
}

// Restore merges an observation that Observations returned back into the
// reduction, as a daemon reopens a window from its snapshot: later
// connections to the same chain and server endpoint fold into it.
func (a *Reduction) Restore(o *campus.Observation) {
	i := a.entry(&zeek.Connection{Chain: o.Chain, SSL: &zeek.SSLRecord{TS: o.First, RespH: o.ServerIP, RespP: o.Port}})
	e := a.entries[i].o
	mergeCounters(e, o)
	for _, ip := range o.ClientIPs {
		a.addIP(e, i, ip)
	}
}

// loader merges block reductions in file order into the observations of one
// serial pass: counters sum, TLS13 ORs, First/Last widen, client IPs
// union, and Domain, Chain, ServerIP and Port come from the first row that
// set them, because blocks and their entries arrive in first-seen order.
type loader struct {
	byKey map[string]int
	order []loadAgg
}

// loadAgg is one observation being merged. Its ClientIPs collect each
// block's distinct addresses; sorted is the length of the sorted,
// duplicate-free prefix, so repeats across blocks are compacted away as
// the list doubles rather than held until the end.
type loadAgg struct {
	o      *campus.Observation
	sorted int
}

func (l *loader) merge(a *Reduction) error {
	for _, e := range a.entries {
		i, ok := l.byKey[e.key]
		if !ok {
			l.byKey[e.key] = len(l.order)
			l.order = append(l.order, loadAgg{o: e.o})
			continue
		}
		g := &l.order[i]
		o := g.o
		mergeCounters(o, e.o)
		o.ClientIPs = append(o.ClientIPs, e.o.ClientIPs...)
		if len(o.ClientIPs) > 2*g.sorted+16 {
			g.compactIPs()
		}
	}
	clear(a.entries)
	a.entries = a.entries[:0]
	clear(a.byKey)
	clear(a.ips)
	a.last, a.lastIdx = rowKey{}, -1
	return nil
}

// mergeCounters folds b's aggregates except client IPs into o, which
// holds the earlier rows: counters sum, TLS13 ORs, First/Last widen, and
// Domain keeps o's unless o has none.
func mergeCounters(o, b *campus.Observation) {
	o.Conns += b.Conns
	o.Established += b.Established
	o.NoSNI += b.NoSNI
	if o.Domain == "" {
		o.Domain = b.Domain
	}
	o.TLS13 = o.TLS13 || b.TLS13
	if b.First.Before(o.First) {
		o.First = b.First
	}
	if b.Last.After(o.Last) {
		o.Last = b.Last
	}
}

// compactIPs sorts the client IPs and drops duplicates.
func (g *loadAgg) compactIPs() {
	ips := g.o.ClientIPs
	sort.Strings(ips)
	g.o.ClientIPs = slices.Compact(ips)
	g.sorted = len(g.o.ClientIPs)
}

// WriteOptions controls how observations expand into Zeek log records.
type WriteOptions struct {
	// MaxConnsPerObservation caps the ssl.log rows emitted per
	// observation; 0 means no cap. Aggregate counts above the cap are
	// down-sampled proportionally (establishment and SNI ratios are
	// preserved by interleaving).
	MaxConnsPerObservation int64
	// Format selects TSV (default) or ND-JSON output.
	Format Format
}

// recordSink abstracts the two writer formats.
type recordSink struct {
	writeSSL  func(*zeek.SSLRecord) error
	writeX509 func(*zeek.X509Record) error
	close     func(at time.Time) error
}

func newSink(format Format, ssl, x509 io.Writer, open time.Time) *recordSink {
	if format == FormatJSON {
		sslW := zeek.NewJSONSSLWriter(ssl)
		x509W := zeek.NewJSONX509Writer(x509)
		return &recordSink{
			writeSSL:  sslW.Write,
			writeX509: x509W.Write,
			close: func(time.Time) error {
				if err := sslW.Close(); err != nil {
					return err
				}
				return x509W.Close()
			},
		}
	}
	sslW := zeek.NewSSLWriter(ssl, open)
	x509W := zeek.NewX509Writer(x509, open)
	return &recordSink{
		writeSSL:  sslW.Write,
		writeX509: x509W.Write,
		close: func(at time.Time) error {
			if err := sslW.Close(at); err != nil {
				return err
			}
			return x509W.Close(at)
		},
	}
}

// Write expands observations into Zeek ssl.log and x509.log streams — the
// inverse of Load, used to materialize a scenario as the log files the
// paper's pipeline starts from.
func Write(observations []*campus.Observation, ssl, x509 io.Writer, opts WriteOptions) error {
	var open time.Time
	for _, o := range observations {
		if open.IsZero() || o.First.Before(open) {
			open = o.First
		}
	}
	sink := newSink(opts.Format, ssl, x509, open)
	seenCert := make(map[string]bool)
	uid := 0

	for _, o := range observations {
		fuids := make([]string, len(o.Chain))
		for i, m := range o.Chain {
			fuids[i] = string(m.FP)
			if !seenCert[fuids[i]] {
				seenCert[fuids[i]] = true
				if err := sink.writeX509(zeek.FromMeta(m, o.First)); err != nil {
					return fmt.Errorf("analysis: write x509 record: %w", err)
				}
			}
		}
		conns := o.Conns
		if opts.MaxConnsPerObservation > 0 && conns > opts.MaxConnsPerObservation {
			conns = opts.MaxConnsPerObservation
		}
		span := o.Last.Sub(o.First)
		for i := int64(0); i < conns; i++ {
			uid++
			ts := o.First
			if conns > 1 && span > 0 {
				ts = o.First.Add(time.Duration(i * int64(span) / (conns - 1)))
			}
			// Preserve the establishment and SNI ratios under sampling by
			// spreading flags evenly across the emitted rows.
			established := i*o.Conns/conns < o.Established
			noSNI := o.Conns > 0 && i*o.Conns/conns >= o.Conns-o.NoSNI
			sni := o.Domain
			if noSNI {
				sni = ""
			}
			clientIP := "10.0.0.1"
			if len(o.ClientIPs) > 0 {
				clientIP = o.ClientIPs[int(i)%len(o.ClientIPs)]
			}
			version := "TLSv12"
			if o.TLS13 {
				version = "TLSv13"
			}
			rec := &zeek.SSLRecord{
				TS:             ts,
				UID:            fmt.Sprintf("C%08x", uid),
				OrigH:          clientIP,
				OrigP:          32768 + int(i%28000),
				RespH:          o.ServerIP,
				RespP:          o.Port,
				Version:        version,
				Cipher:         "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256",
				ServerName:     sni,
				Established:    established,
				CertChainFUIDs: fuids,
			}
			if err := sink.writeSSL(rec); err != nil {
				return fmt.Errorf("analysis: write ssl record: %w", err)
			}
		}
	}
	var closeAt time.Time
	for _, o := range observations {
		if o.Last.After(closeAt) {
			closeAt = o.Last
		}
	}
	return sink.close(closeAt)
}

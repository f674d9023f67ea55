//certchain:hotpath — the fast join decodes every ssl.log/x509.log row.

package zeek

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
)

// FastJoin is the zero-allocation counterpart of Join: it streams ssl.log
// and x509.log in Zeek's TSV format through byte-slice decoders — no
// intermediate Record maps, no per-field string allocation — and produces
// the same joined connections in the same order with the same per-row and
// stream errors, byte for byte (pinned by the differential fuzzers in
// equiv_fuzz_test.go).
//
// FastJoin is the one-worker case of FoldBlocks: the same splitter cuts
// each log into newline-aligned blocks, and one joiner decodes them in
// place, in file order, calling fn for every row.
//
// Allocation economy comes from three reuses, which change the retention
// contract relative to Join:
//
//   - The *Connection and its SSL record are pooled: they are only valid
//     until fn returns, as is the CertChainFUIDs slice (read-only: the
//     next row may reuse it unchanged). Field string values
//     (and the Chain) may be retained freely.
//   - Chain values are canonical: every connection delivering the same
//     certificate sequence shares one Chain slice (read-only by contract,
//     like the *Meta values it holds).
//   - Repeated strings (DNs, SNIs, addresses, algorithm names) are
//     interned per call; certificates parse their DNs once per distinct
//     string.
func FastJoin(ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return fastJoin(ssl, x509, false, fn)
}

// FastJoinJSON is FastJoin for Zeek's ND-JSON log format. Well-formed flat
// records decode through a byte-slice tokenizer; any line outside that
// shape (escapes, nested values, type surprises, malformed JSON) re-parses
// through the legacy full-line path, so behaviour — including error text —
// is identical to JoinJSON on every input.
func FastJoinJSON(ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return fastJoin(ssl, x509, true, fn)
}

func fastJoin(ssl, x509 io.Reader, json bool, fn func(c *Connection, err error) error) error {
	certs, err := indexCerts(x509, json)
	if err != nil {
		return err
	}
	j := newFastJoiner()
	return eachBlock(ssl, json, func(b *block, base int) (int, error) {
		return j.join(json, b, base, certs, fn)
	})
}

// fastJoiner carries one decode stream's reusable state: the scanners, the
// interners, the canonical chain cache, the pooled connection/record pair,
// and scratch buffers. It is owned by one goroutine: every block worker has
// its own.
type fastJoiner struct {
	tsv     tsvScanner
	json    jsonScanner
	strs    certmodel.Interner
	dns     dn.Interner
	chains  map[string]certmodel.Chain
	keyBuf  []byte
	fuids   []string
	scratch []byte
	conn    Connection
	ssl     SSLRecord
	x509    x509Row

	// One-entry memos: consecutive rows repeat most values (a campus's
	// versions and ciphers, one server's endpoint, SNI and chain across its
	// connections), and a hit costs one comparison instead of a map probe.
	memo      [numMemos]string // last interned value per string field ...
	memoRaw   [numMemos][]byte // ... and its bytes
	fuidsRaw  []byte           // the TSV chain column j.fuids was split from
	lastKey   []byte           // chainFor's last resolved key ...
	lastChain certmodel.Chain  // ... and its canonical chain
}

// Memo slots for fastJoiner.memo, one per interned scalar field.
const (
	memoOrigH = iota
	memoRespH
	memoVersion
	memoCipher
	memoServerName
	memoKeyAlg
	memoSigAlg
	memoKeyType
	numMemos
	noIntern = -1 // jsonString: return a fresh string, not an interned one
)

// intern returns the canonical string for v through the memo slot m.
func (j *fastJoiner) intern(v []byte, m int) string {
	if bytes.Equal(v, j.memoRaw[m]) {
		return j.memo[m]
	}
	j.memoRaw[m] = append(j.memoRaw[m][:0], v...)
	j.memo[m] = j.strs.Bytes(v)
	return j.memo[m]
}

func newFastJoiner() *fastJoiner {
	return &fastJoiner{chains: make(map[string]certmodel.Chain)}
}

// resetSSL is the pooled record's explicit reset; the scratch slices it
// drops are re-linked by the next parse.
func (j *fastJoiner) resetSSL() { j.ssl = SSLRecord{} }

// x509Row is the reusable x509 field holder: byte views stay valid until
// the next scanner advance, which is after the row is folded into a Meta.
type x509Row struct {
	ts, nvb, nva time.Time
	tsOK         bool
	id           []byte
	serial       []byte
	subject      []byte
	issuer       []byte
	keyType      string
	sigAlg       string
	keyLen       int
	bcVal, bcSet bool
	san          []string
}

// chainFor resolves a fuid list against the certificate index, returning
// the canonical shared Chain for that sequence. The per-row error for an
// unknown fuid matches JoinRecords exactly.
func (j *fastJoiner) chainFor(certs map[string]*certmodel.Meta, uid string, fuids []string) (certmodel.Chain, error) {
	if len(fuids) == 0 {
		return nil, nil
	}
	j.keyBuf = j.keyBuf[:0]
	for _, f := range fuids {
		j.keyBuf = strconv.AppendInt(j.keyBuf, int64(len(f)), 10)
		j.keyBuf = append(j.keyBuf, ':')
		j.keyBuf = append(j.keyBuf, f...)
	}
	if len(j.lastKey) > 0 && bytes.Equal(j.keyBuf, j.lastKey) {
		return j.lastChain, nil
	}
	if ch, ok := j.chains[string(j.keyBuf)]; ok {
		j.lastKey = append(j.lastKey[:0], j.keyBuf...)
		j.lastChain = ch
		return ch, nil
	}
	ch := make(certmodel.Chain, 0, len(fuids))
	for _, f := range fuids {
		m, ok := certs[f]
		if !ok {
			return nil, fmt.Errorf("zeek: connection %s references unknown certificate %s", uid, f) //certchain:coldpath per-row join-gap error path
		}
		ch = append(ch, m)
	}
	j.chains[string(j.keyBuf)] = ch
	j.lastKey = append(j.lastKey[:0], j.keyBuf...)
	j.lastChain = ch
	return ch, nil
}

// deliver runs the joined-row tail of JoinRecords: resolve the chain, route
// the row or its error to the callback.
func (j *fastJoiner) deliver(certs map[string]*certmodel.Meta, r *SSLRecord, fn func(*Connection, error) error) error {
	ch, joinErr := j.chainFor(certs, r.UID, r.CertChainFUIDs)
	if joinErr != nil {
		return fn(nil, joinErr)
	}
	j.conn = Connection{SSL: r, Chain: ch}
	return fn(&j.conn, nil)
}

// buildMeta folds one parsed x509 row into the index — the indexX509Records
// tail: missing-field errors are fatal, duplicates keep the first record,
// DN parsing happens only for first-seen ids, with ToMeta's error text.
func (j *fastJoiner) buildMeta(out map[string]*certmodel.Meta, row *x509Row) error {
	if !row.tsOK {
		return errX509MissingTS
	}
	if len(row.id) == 0 {
		return errX509MissingID
	}
	if _, dup := out[string(row.id)]; dup {
		return nil // Zeek logs a certificate once per observation; first wins
	}
	issuer, err := j.dns.Parse(row.issuer)
	if err != nil {
		return fmt.Errorf("zeek: x509 %s: bad issuer: %w", row.id, err) //certchain:coldpath malformed-record error path
	}
	subject, err := j.dns.Parse(row.subject)
	if err != nil {
		return fmt.Errorf("zeek: x509 %s: bad subject: %w", row.id, err) //certchain:coldpath malformed-record error path
	}
	id := string(row.id)
	m := &certmodel.Meta{
		FP:        certmodel.Fingerprint(id),
		Issuer:    issuer,
		Subject:   subject,
		SerialHex: strings.ToLower(string(row.serial)),
		NotBefore: row.nvb,
		NotAfter:  row.nva,
		KeyAlg:    certmodel.KeyAlgorithm(row.keyType),
		KeyBits:   row.keyLen,
		SigAlg:    row.sigAlg,
		SAN:       row.san,
	}
	switch {
	case !row.bcSet:
		m.BC = certmodel.BCAbsent
	case row.bcVal:
		m.BC = certmodel.BCTrue
	default:
		m.BC = certmodel.BCFalse
	}
	out[id] = m
	return nil
}

// ---- TSV ----

// sslCols maps the ssl schema onto the current #fields directive;
// duplicate names keep the last column, like Record construction.
type sslCols struct {
	gen                                 int
	ts, uid, origH, origP, respH, respP int
	version, cipher, serverName         int
	resumed, established, chain         int
}

func (c *sslCols) refresh(s *tsvScanner) {
	*c = sslCols{gen: s.gen, ts: -1, uid: -1, origH: -1, origP: -1, respH: -1, respP: -1,
		version: -1, cipher: -1, serverName: -1, resumed: -1, established: -1, chain: -1}
	for i, f := range s.fields {
		switch f {
		case "ts":
			c.ts = i
		case "uid":
			c.uid = i
		case "id.orig_h":
			c.origH = i
		case "id.orig_p":
			c.origP = i
		case "id.resp_h":
			c.respH = i
		case "id.resp_p":
			c.respP = i
		case "version":
			c.version = i
		case "cipher":
			c.cipher = i
		case "server_name":
			c.serverName = i
		case "resumed":
			c.resumed = i
		case "established":
			c.established = i
		case "cert_chain_fuids":
			c.chain = i
		}
	}
}

type x509Cols struct {
	gen                                   int
	ts, id, serial, subject, issuer       int
	nvb, nva, sigAlg, keyType, keyLen, bc int
	san                                   int
}

func (c *x509Cols) refresh(s *tsvScanner) {
	*c = x509Cols{gen: s.gen, ts: -1, id: -1, serial: -1, subject: -1, issuer: -1,
		nvb: -1, nva: -1, sigAlg: -1, keyType: -1, keyLen: -1, bc: -1, san: -1}
	for i, f := range s.fields {
		switch f {
		case "ts":
			c.ts = i
		case "id":
			c.id = i
		case "certificate.serial":
			c.serial = i
		case "certificate.subject":
			c.subject = i
		case "certificate.issuer":
			c.issuer = i
		case "certificate.not_valid_before":
			c.nvb = i
		case "certificate.not_valid_after":
			c.nva = i
		case "certificate.sig_alg":
			c.sigAlg = i
		case "certificate.key_type":
			c.keyType = i
		case "certificate.key_length":
			c.keyLen = i
		case "basic_constraints.ca":
			c.bc = i
		case "san.dns":
			c.san = i
		}
	}
}

// joinSSLTSV joins one ssl block and returns the number of lines it holds.
func (j *fastJoiner) joinSSLTSV(b *block, base int, certs map[string]*certmodel.Meta, fn func(*Connection, error) error) (int, error) {
	s := &j.tsv
	s.reset(b, base)
	cols := sslCols{gen: -1}
	for {
		ok, err := s.scan()
		if err != nil {
			return 0, err
		}
		if !ok {
			return s.line - base, nil
		}
		if cols.gen != s.gen {
			cols.refresh(s) //certchain:coldpath once per #fields directive and block
		}
		if rowErr := j.parseSSLTSV(s, &cols); rowErr != nil {
			if cbErr := fn(nil, rowErr); cbErr != nil {
				return 0, cbErr
			}
			continue
		}
		if err := j.deliver(certs, &j.ssl, fn); err != nil {
			return 0, err
		}
	}
}

func (j *fastJoiner) parseSSLTSV(s *tsvScanner, c *sslCols) error {
	j.resetSSL()
	r := &j.ssl
	var ok bool
	if r.TS, ok = s.fieldTime(c.ts); !ok {
		return errSSLMissingTS
	}
	uid, _ := s.field(c.uid)
	if len(uid) == 0 {
		return errSSLMissingUID
	}
	r.UID = string(uid)
	r.OrigH = j.internField(s, c.origH, memoOrigH)
	r.OrigP, _ = s.fieldInt(c.origP)
	r.RespH = j.internField(s, c.respH, memoRespH)
	r.RespP, _ = s.fieldInt(c.respP)
	r.Version = j.internField(s, c.version, memoVersion)
	r.Cipher = j.internField(s, c.cipher, memoCipher)
	r.ServerName = j.internField(s, c.serverName, memoServerName)
	r.Resumed, _ = s.fieldBool(c.resumed)
	r.Established, _ = s.fieldBool(c.established)
	r.CertChainFUIDs = j.vectorScratch(s, c.chain)
	return nil
}

// internField reads a scalar string column into the interner through memo
// slot m; absent fields become "" exactly as Record.Get's callers see them.
func (j *fastJoiner) internField(s *tsvScanner, c, m int) string {
	v, ok := s.field(c)
	if !ok {
		return ""
	}
	return j.intern(v, m)
}

// vectorScratch splits a vector column into the reused fuid scratch slice
// (valid until the next row), interning each element. A column equal to the
// previous row's returns the previous split.
func (j *fastJoiner) vectorScratch(s *tsvScanner, c int) []string {
	v, ok := s.field(c)
	if !ok || len(v) == 0 {
		return nil
	}
	if bytes.Equal(v, j.fuidsRaw) {
		return j.fuids
	}
	j.fuidsRaw = append(j.fuidsRaw[:0], v...)
	j.fuids = j.fuids[:0]
	for {
		i := bytes.IndexByte(v, ',')
		if i < 0 {
			j.fuids = append(j.fuids, j.strs.Bytes(v))
			return j.fuids
		}
		j.fuids = append(j.fuids, j.strs.Bytes(v[:i]))
		v = v[i+1:]
	}
}

// vectorFresh is vectorScratch into a fresh slice, for values retained
// beyond the row (certificate SANs).
func (j *fastJoiner) vectorFresh(s *tsvScanner, c int) []string {
	v, ok := s.field(c)
	if !ok || len(v) == 0 {
		return nil
	}
	out := make([]string, 0, bytes.Count(v, []byte{','})+1)
	for {
		i := bytes.IndexByte(v, ',')
		if i < 0 {
			return append(out, j.strs.Bytes(v))
		}
		out = append(out, j.strs.Bytes(v[:i]))
		v = v[i+1:]
	}
}

// indexX509TSV folds one x509 block into out and returns the number of
// lines it holds.
func (j *fastJoiner) indexX509TSV(b *block, base int, out map[string]*certmodel.Meta) (int, error) {
	s := &j.tsv
	s.reset(b, base)
	cols := x509Cols{gen: -1}
	for {
		ok, err := s.scan()
		if err != nil {
			return 0, err
		}
		if !ok {
			return s.line - base, nil
		}
		if cols.gen != s.gen {
			cols.refresh(s) //certchain:coldpath once per #fields directive and block
		}
		row := &j.x509
		*row = x509Row{}
		row.ts, row.tsOK = s.fieldTime(cols.ts)
		row.id, _ = s.field(cols.id)
		row.serial, _ = s.field(cols.serial)
		row.subject, _ = s.field(cols.subject)
		row.issuer, _ = s.field(cols.issuer)
		row.nvb, _ = s.fieldTime(cols.nvb)
		row.nva, _ = s.fieldTime(cols.nva)
		row.sigAlg = j.internField(s, cols.sigAlg, memoSigAlg)
		row.keyType = j.internField(s, cols.keyType, memoKeyType)
		row.keyLen, _ = s.fieldInt(cols.keyLen)
		row.bcVal, row.bcSet = s.fieldBool(cols.bc)
		row.san = j.vectorFresh(s, cols.san)
		if err := j.buildMeta(out, row); err != nil {
			return 0, err
		}
	}
}

// ---- ND-JSON ----

// JSON key dispatch tables; 0 means "not a schema field, skip".
const (
	jkTS = 1 + iota
	jkUID
	jkOrigH
	jkOrigP
	jkRespH
	jkRespP
	jkVersion
	jkCipher
	jkServerName
	jkResumed
	jkEstablished
	jkChain
	jkID
	jkSerial
	jkSubject
	jkIssuer
	jkNVB
	jkNVA
	jkKeyAlg
	jkSigAlg
	jkKeyType
	jkKeyLen
	jkBC
	jkSAN
	jkX509Version
)

var sslJSONKey = map[string]int{
	"ts": jkTS, "uid": jkUID, "id.orig_h": jkOrigH, "id.orig_p": jkOrigP,
	"id.resp_h": jkRespH, "id.resp_p": jkRespP, "version": jkVersion,
	"cipher": jkCipher, "server_name": jkServerName, "resumed": jkResumed,
	"established": jkEstablished, "cert_chain_fuids": jkChain,
}

var x509JSONKey = map[string]int{
	"ts": jkTS, "id": jkID, "certificate.version": jkX509Version,
	"certificate.serial": jkSerial, "certificate.subject": jkSubject,
	"certificate.issuer": jkIssuer, "certificate.not_valid_before": jkNVB,
	"certificate.not_valid_after": jkNVA, "certificate.key_alg": jkKeyAlg,
	"certificate.sig_alg": jkSigAlg, "certificate.key_type": jkKeyType,
	"certificate.key_length": jkKeyLen, "basic_constraints.ca": jkBC,
	"san.dns": jkSAN,
}

// jsonString parses a scalar string value with Record.Get's sentinel
// semantics: null and the unset sentinel yield "", as does the empty
// sentinel and the empty string. The value is interned through memo slot m
// unless m is noIntern. ok=false sends the line to the fallback.
func (j *fastJoiner) jsonString(t *jsonTok, m int) (string, bool) {
	switch t.peek() {
	case '"':
		s, ok := t.simpleString()
		if !ok {
			return "", false
		}
		if len(s) == 0 || string(s) == UnsetField || string(s) == EmptyField {
			return "", true
		}
		if m != noIntern {
			return j.intern(s, m), true
		}
		return string(s), true
	case 'n':
		return "", t.literal("null")
	}
	return "", false
}

// jsonTime parses a numeric time value; null means absent.
func (t *jsonTok) jsonTime() (ts time.Time, set, ok bool) {
	switch c := t.peek(); {
	case c == '-' || (c >= '0' && c <= '9'):
		f, ok := t.number()
		if !ok {
			return time.Time{}, false, false
		}
		return epochToTime(f), true, true
	case c == 'n':
		return time.Time{}, false, t.literal("null")
	}
	return time.Time{}, false, false
}

// jsonInt parses a numeric value with the legacy float-render/Atoi round
// trip's semantics; null and non-integral values yield 0.
func (j *fastJoiner) jsonInt(t *jsonTok) (int, bool) {
	switch c := t.peek(); {
	case c == '-' || (c >= '0' && c <= '9'):
		f, ok := t.number()
		if !ok {
			return 0, false
		}
		return j.intFromFloat(f), true
	case c == 'n':
		return 0, t.literal("null")
	}
	return 0, false
}

// intFromFloat reproduces jsonValueToField + Record.GetInt: format the
// float and Atoi it. Safe integral floats take the direct path (their
// shortest 'f' rendering is the same integer); everything else replays the
// render/parse pair exactly.
func (j *fastJoiner) intFromFloat(f float64) int {
	if f == math.Trunc(f) && f >= -(1<<53) && f <= 1<<53 {
		return int(f)
	}
	j.scratch = strconv.AppendFloat(j.scratch[:0], f, 'f', -1, 64) //certchain:coldpath rare shape, exact-oracle fallback
	n, _ := parseIntBytes(j.scratch)
	return n
}

func (t *jsonTok) jsonBool() (v, ok bool) {
	switch t.peek() {
	case 't':
		return true, t.literal("true")
	case 'f':
		return false, t.literal("false")
	case 'n':
		return false, t.literal("null")
	}
	return false, false
}

// jsonVector parses an array of plain strings that survive the legacy
// join-then-split round trip unchanged: non-empty, comma-free, non-sentinel
// elements. Anything else (including whole-array sentinel collisions)
// falls back. dst may be a reused scratch slice.
func (j *fastJoiner) jsonVector(t *jsonTok, dst []string) ([]string, bool) {
	switch t.peek() {
	case '[':
	case 'n':
		return nil, t.literal("null")
	default:
		return nil, false
	}
	t.i++
	if t.peek() == ']' {
		t.i++
		return nil, true // empty vector renders as the empty sentinel: nil
	}
	for {
		t.ws()
		el, ok := t.simpleString()
		if !ok {
			return nil, false
		}
		if len(el) == 0 || bytes.IndexByte(el, ',') >= 0 ||
			string(el) == UnsetField || string(el) == EmptyField {
			return nil, false
		}
		dst = append(dst, j.strs.Bytes(el))
		switch t.peek() {
		case ',':
			t.i++
		case ']':
			t.i++
			return dst, true
		default:
			return nil, false
		}
	}
}

// legacyJSONRecord is the exact fallback: the legacy JSONReader's per-line
// conversion, reproducing encoding/json's error text for malformed lines.
func legacyJSONRecord(line []byte, lineNo int) (Record, error) {
	var raw map[string]any
	if err := json.Unmarshal(line, &raw); err != nil {
		return nil, &lineError{prefix: "zeek: json line", line: lineNo, err: err}
	}
	rec := make(Record, len(raw))
	for k, v := range raw {
		rec[k] = jsonValueToField(v)
	}
	return rec, nil
}

// parseSSLJSONFast decodes one flat ND-JSON ssl row into the pooled record.
// fastOK=false means the line is outside the tokenizer's subset and must be
// re-parsed through the legacy path.
func (j *fastJoiner) parseSSLJSONFast(line []byte) (rowErr error, fastOK bool) {
	t := jsonTok{b: line}
	if t.peek() != '{' {
		return nil, false
	}
	t.i++
	j.resetSSL()
	r := &j.ssl
	tsSet := false
	if t.peek() == '}' {
		t.i++
	} else {
	fields:
		for {
			t.ws()
			k, ok := t.simpleString()
			if !ok || t.peek() != ':' {
				return nil, false
			}
			t.i++
			switch sslJSONKey[string(k)] {
			case jkTS:
				var ok bool
				if r.TS, tsSet, ok = t.jsonTime(); !ok {
					return nil, false
				}
			case jkUID:
				if r.UID, ok = j.jsonString(&t, noIntern); !ok {
					return nil, false
				}
			case jkOrigH:
				if r.OrigH, ok = j.jsonString(&t, memoOrigH); !ok {
					return nil, false
				}
			case jkOrigP:
				if r.OrigP, ok = j.jsonInt(&t); !ok {
					return nil, false
				}
			case jkRespH:
				if r.RespH, ok = j.jsonString(&t, memoRespH); !ok {
					return nil, false
				}
			case jkRespP:
				if r.RespP, ok = j.jsonInt(&t); !ok {
					return nil, false
				}
			case jkVersion:
				if r.Version, ok = j.jsonString(&t, memoVersion); !ok {
					return nil, false
				}
			case jkCipher:
				if r.Cipher, ok = j.jsonString(&t, memoCipher); !ok {
					return nil, false
				}
			case jkServerName:
				if r.ServerName, ok = j.jsonString(&t, memoServerName); !ok {
					return nil, false
				}
			case jkResumed:
				if r.Resumed, ok = t.jsonBool(); !ok {
					return nil, false
				}
			case jkEstablished:
				if r.Established, ok = t.jsonBool(); !ok {
					return nil, false
				}
			case jkChain:
				if r.CertChainFUIDs, ok = j.jsonVector(&t, j.fuids[:0]); !ok {
					return nil, false
				}
				if r.CertChainFUIDs != nil {
					j.fuids = r.CertChainFUIDs
				}
			default:
				if !t.skipValue() {
					return nil, false
				}
			}
			switch t.peek() {
			case ',':
				t.i++
			case '}':
				t.i++
				break fields
			default:
				return nil, false
			}
		}
	}
	t.ws()
	if t.i != len(t.b) {
		return nil, false
	}
	if !tsSet {
		return errSSLMissingTS, true
	}
	if r.UID == "" {
		return errSSLMissingUID, true
	}
	return nil, true
}

// joinSSLJSON joins one ssl block and returns the number of lines it holds.
func (j *fastJoiner) joinSSLJSON(b *block, base int, certs map[string]*certmodel.Meta, fn func(*Connection, error) error) (int, error) {
	s := &j.json
	s.reset(b, base)
	for {
		ok, err := s.scan()
		if err != nil {
			return 0, err
		}
		if !ok {
			return s.line - base, nil
		}
		rowErr, fastOK := j.parseSSLJSONFast(s.cur)
		if !fastOK {
			rec, err := legacyJSONRecord(s.cur, s.line) //certchain:coldpath anomalous-line fallback
			if err != nil {
				return 0, err
			}
			sr, rowErr := ParseSSLRecord(rec)
			if rowErr != nil {
				if cbErr := fn(nil, rowErr); cbErr != nil {
					return 0, cbErr
				}
				continue
			}
			if err := j.deliver(certs, sr, fn); err != nil {
				return 0, err
			}
			continue
		}
		if rowErr != nil {
			if cbErr := fn(nil, rowErr); cbErr != nil {
				return 0, cbErr
			}
			continue
		}
		if err := j.deliver(certs, &j.ssl, fn); err != nil {
			return 0, err
		}
	}
}

// parseX509JSONFast decodes one flat ND-JSON x509 row into the reusable
// field holder; fastOK=false routes the line to the legacy fallback.
func (j *fastJoiner) parseX509JSONFast(line []byte) (row *x509Row, fastOK bool) {
	t := jsonTok{b: line}
	if t.peek() != '{' {
		return nil, false
	}
	t.i++
	row = &j.x509
	*row = x509Row{}
	var ok bool
	if t.peek() == '}' {
		t.i++
	} else {
	fields:
		for {
			t.ws()
			k, okK := t.simpleString()
			if !okK || t.peek() != ':' {
				return nil, false
			}
			t.i++
			switch x509JSONKey[string(k)] {
			case jkTS:
				if row.ts, row.tsOK, ok = t.jsonTime(); !ok {
					return nil, false
				}
			case jkID:
				if row.id, ok = j.jsonRawString(&t); !ok {
					return nil, false
				}
			case jkSerial:
				if row.serial, ok = j.jsonRawString(&t); !ok {
					return nil, false
				}
			case jkSubject:
				if row.subject, ok = j.jsonRawString(&t); !ok {
					return nil, false
				}
			case jkIssuer:
				if row.issuer, ok = j.jsonRawString(&t); !ok {
					return nil, false
				}
			case jkNVB:
				if row.nvb, _, ok = t.jsonTime(); !ok {
					return nil, false
				}
			case jkNVA:
				if row.nva, _, ok = t.jsonTime(); !ok {
					return nil, false
				}
			case jkKeyAlg:
				if _, ok = j.jsonString(&t, memoKeyAlg); !ok {
					return nil, false
				}
			case jkSigAlg:
				if row.sigAlg, ok = j.jsonString(&t, memoSigAlg); !ok {
					return nil, false
				}
			case jkKeyType:
				if row.keyType, ok = j.jsonString(&t, memoKeyType); !ok {
					return nil, false
				}
			case jkKeyLen:
				if row.keyLen, ok = j.jsonInt(&t); !ok {
					return nil, false
				}
			case jkBC:
				if t.peek() == 'n' {
					if !t.literal("null") {
						return nil, false
					}
				} else {
					if row.bcVal, ok = t.jsonBool(); !ok {
						return nil, false
					}
					row.bcSet = true
				}
			case jkSAN:
				if row.san, ok = j.jsonVector(&t, nil); !ok {
					return nil, false
				}
			case jkX509Version:
				if _, ok = j.jsonInt(&t); !ok {
					return nil, false
				}
			default:
				if !t.skipValue() {
					return nil, false
				}
			}
			switch t.peek() {
			case ',':
				t.i++
			case '}':
				t.i++
				break fields
			default:
				return nil, false
			}
		}
	}
	t.ws()
	if t.i != len(t.b) {
		return nil, false
	}
	return row, true
}

// jsonRawString parses a string value into a byte view with Record.Get's
// sentinel semantics (null/unset → nil absent view, empty sentinel → empty
// present view). The view is only valid until the next line.
func (j *fastJoiner) jsonRawString(t *jsonTok) ([]byte, bool) {
	switch t.peek() {
	case '"':
		s, ok := t.simpleString()
		if !ok {
			return nil, false
		}
		if string(s) == UnsetField {
			return nil, true
		}
		if string(s) == EmptyField {
			return s[:0], true
		}
		return s, true
	case 'n':
		return nil, t.literal("null")
	}
	return nil, false
}

// indexX509JSON folds one x509 block into out and returns the number of
// lines it holds.
func (j *fastJoiner) indexX509JSON(b *block, base int, out map[string]*certmodel.Meta) (int, error) {
	s := &j.json
	s.reset(b, base)
	for {
		ok, err := s.scan()
		if err != nil {
			return 0, err
		}
		if !ok {
			return s.line - base, nil
		}
		row, fastOK := j.parseX509JSONFast(s.cur)
		if !fastOK {
			rec, err := legacyJSONRecord(s.cur, s.line) //certchain:coldpath anomalous-line fallback
			if err != nil {
				return 0, err
			}
			xr, err := ParseX509Record(rec)
			if err != nil {
				return 0, err
			}
			if _, dup := out[xr.ID]; dup {
				continue
			}
			m, err := xr.ToMeta()
			if err != nil {
				return 0, err
			}
			out[xr.ID] = m
			continue
		}
		if err := j.buildMeta(out, row); err != nil {
			return 0, err
		}
	}
}

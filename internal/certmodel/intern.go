//certchain:hotpath — the interner sits under every per-row string the Zeek
// decoders materialize.

package certmodel

// Interner canonicalizes byte views into owned, deduplicated strings. The
// Zeek decode hot path reads fields as views into a reused row buffer;
// interning is the step that makes a field value safe to retain (the
// returned string is an independent copy, never aliasing the view) while
// collapsing the massive repetition real logs carry — issuer and subject
// DNs, SNIs, server IPs, algorithm names — to one allocation per distinct
// value instead of one per row.
//
// The zero value is ready to use. An Interner is NOT safe for concurrent
// use: like dn.Interner it has a single owner, one per decode stream (every
// block worker has its own), so the hit path is a bare map probe that
// allocates nothing (the probe with a string conversion of the byte view
// does not copy).
type Interner struct {
	m map[string]string
}

// Bytes returns the canonical string for b. Equal inputs return the same
// canonical string; the result never aliases b's backing array.
func (in *Interner) Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if in.m == nil {
		in.m = make(map[string]string) //certchain:coldpath first insert only
	}
	s := string(b) //certchain:coldpath one copy ever per distinct value, on its first miss
	in.m[s] = s
	return s
}

// String returns the canonical string for s, interning it on first sight.
func (in *Interner) String(s string) string {
	if s == "" {
		return ""
	}
	if c, ok := in.m[s]; ok {
		return c
	}
	if in.m == nil {
		in.m = make(map[string]string) //certchain:coldpath first insert only
	}
	in.m[s] = s
	return s
}

// Len reports the number of distinct strings interned so far.
func (in *Interner) Len() int { return len(in.m) }

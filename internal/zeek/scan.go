//certchain:hotpath — the byte-slice TSV scanner runs once per log line.

package zeek

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"
)

// tsvScanner is the zero-allocation analogue of Reader: it walks one block
// of a Zeek ASCII log in place, splitting each line into field views and
// resolving escapes in place on access. Its observable behaviour — line
// accounting, header handling, truncation tolerance, and every error
// string — is pinned byte-identical to Reader by the differential fuzzers
// in equiv_fuzz_test.go.
type tsvScanner struct {
	rest []byte    // the block's unscanned lines
	row  []byte    // the current line
	cols []colSpan // field bounds in row, escapes resolved lazily per access
	// fields is the current #fields directive; gen bumps on every directive
	// and every block so decoders know to recompute their column indices.
	fields []string
	gen    int
	line   int
}

// reset points the scanner at block b, whose first line follows base lines.
func (s *tsvScanner) reset(b *block, base int) {
	s.rest = b.data
	s.fields = b.fields
	s.gen++
	s.line = base
}

// cutLine splits the first line off rest and reports whether it was
// newline-terminated; the line excludes the newline.
func cutLine(rest []byte) (line, after []byte, terminated bool) {
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		return rest[:i], rest[i+1:], true
	}
	return rest, nil, false
}

// scan advances to the next data row, handling directives and the same
// mid-write tolerance Reader documents. It returns false at the end of the
// block.
func (s *tsvScanner) scan() (bool, error) {
	for len(s.rest) > 0 {
		row, rest, terminated := cutLine(s.rest)
		s.rest = rest
		if n := len(row); n > 0 && row[n-1] == '\r' {
			row = row[:n-1]
		}
		if len(row) == 0 {
			continue
		}
		s.line++
		if row[0] == '#' {
			if !terminated {
				// A directive fragment cut mid-write: not yet a directive.
				continue
			}
			if f, ok := parseFieldsDirective(row); ok {
				s.fields = f
				s.gen++
			}
			continue
		}
		if len(s.fields) == 0 {
			return false, &lineError{prefix: "zeek: line", line: s.line, err: errDataBeforeHeader}
		}
		s.split(row)
		if len(s.cols) != len(s.fields) {
			if !terminated {
				// The writer is mid-record; the fragment is not data yet.
				continue
			}
			return false, &lineError{prefix: "zeek: line", line: s.line, err: fmt.Errorf("%d values for %d fields", len(s.cols), len(s.fields))} //certchain:coldpath malformed-line error path
		}
		return true, nil
	}
	return false, nil
}

var errDataBeforeHeader = errors.New("data before #fields header")

// fieldsDirective starts the one directive that affects the join.
var fieldsDirective = []byte("#fields")

// parseFieldsDirective parses a '#'-prefixed header line (without its line
// terminators) if it is a #fields directive. Other directives (#separator,
// #types, #close, ...) are ignored exactly as parseDirective ignores them
// for record decoding.
func parseFieldsDirective(row []byte) ([]string, bool) {
	const prefix = "#fields\t"
	switch {
	case len(row) >= len(prefix) && string(row[:len(prefix)]) == prefix:
		return splitFields(string(row[len(prefix):])), true
	case string(row) == "#fields": //certchain:coldpath once per directive line, not per record
		// SplitN yields an empty rest, which Split maps to one empty name.
		return []string{""}, true
	}
	return nil, false
}

// splitFields is strings.Split(rest, Separator) — one empty name for an
// empty rest, matching the legacy header parse.
func splitFields(rest string) []string {
	out := make([]string, 0, 16)
	for {
		i := indexByteString(rest, '\t')
		if i < 0 {
			return append(out, rest)
		}
		out = append(out, rest[:i])
		rest = rest[i+1:]
	}
}

func indexByteString(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// colSpan bounds one field of the current line. Bounds rather than views
// keep the per-field bookkeeping pointer-free.
type colSpan struct{ lo, hi int }

// split cuts row into tab-separated fields without copying.
func (s *tsvScanner) split(row []byte) {
	s.row = row
	s.cols = s.cols[:0]
	lo := 0
	for {
		i := bytes.IndexByte(row[lo:], '\t')
		if i < 0 {
			s.cols = append(s.cols, colSpan{lo, len(row)})
			return
		}
		s.cols = append(s.cols, colSpan{lo, lo + i})
		lo += i + 1
	}
}

// field returns the unescaped bytes of column c and whether the field is
// set: the unset sentinel maps to absent, the empty sentinel to a present
// empty value — Record.Get over byte views. Each column must be accessed at
// most once per row (unescaping rewrites the view in place). c < 0 means
// the header lacks the field.
func (s *tsvScanner) field(c int) ([]byte, bool) {
	if c < 0 {
		return nil, false
	}
	sp := &s.cols[c]
	v := unescapeInPlace(s.row[sp.lo:sp.hi])
	sp.hi = sp.lo + len(v)
	if string(v) == UnsetField {
		return nil, false
	}
	if string(v) == EmptyField {
		return v[:0], true
	}
	return v, true
}

// fieldTime parses a Zeek time column — Record.GetTime over byte views.
func (s *tsvScanner) fieldTime(c int) (time.Time, bool) {
	v, ok := s.field(c)
	if !ok {
		return time.Time{}, false
	}
	f, ok := parseFloatBytes(v)
	if !ok {
		return time.Time{}, false
	}
	return epochToTime(f), true
}

// fieldInt parses a count/int column — Record.GetInt over byte views.
func (s *tsvScanner) fieldInt(c int) (int, bool) {
	v, ok := s.field(c)
	if !ok {
		return 0, false
	}
	return parseIntBytes(v)
}

// fieldBool parses a Zeek bool column — Record.GetBool over byte views.
func (s *tsvScanner) fieldBool(c int) (value, present bool) {
	v, ok := s.field(c)
	if !ok {
		return false, false
	}
	return string(v) == "T", true
}

// unescapeInPlace resolves the Zeek writer's escapes, rewriting b in place
// (the result is never longer than the input). The state machine mirrors
// unescapeField byte for byte, including its tolerance of dangling and
// malformed escapes.
func unescapeInPlace(b []byte) []byte {
	i := bytes.IndexByte(b, '\\')
	if i < 0 {
		return b
	}
	w := i
	for i < len(b) {
		if b[i] == '\\' && i+1 < len(b) {
			switch b[i+1] {
			case '\\':
				b[w] = '\\'
				w++
				i += 2
				continue
			case 'x':
				if i+3 < len(b) {
					hi, okHi := hexVal(b[i+2])
					lo, okLo := hexVal(b[i+3])
					if okHi && okLo {
						b[w] = hi<<4 | lo
						w++
						i += 4
						continue
					}
				}
			}
		}
		b[w] = b[i]
		w++
		i++
	}
	return b[:w]
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// pow10 holds the exactly-representable powers of ten the fast float path
// divides by (10^0 .. 10^22 are exact in float64).
var pow10 = [23]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloatBytes parses a decimal float without allocating for the common
// Zeek time shape (plain digits with one optional dot). The fast path only
// fires when the result is provably identical to strconv.ParseFloat: the
// mantissa fits 2^53 (float64(mant) exact) and the scale is an exact power
// of ten, so the IEEE division is the correctly-rounded decimal value.
// Everything else — exponents, underscores, huge mantissas, malformed input
// — falls back to ParseFloat on a copied string.
func parseFloatBytes(b []byte) (float64, bool) {
	var (
		mant    uint64
		digits  int
		frac    int
		seenDot bool
		neg     bool
	)
	i := 0
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	fast := i < len(b)
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' {
			if seenDot {
				fast = false
				break
			}
			seenDot = true
			continue
		}
		if c < '0' || c > '9' {
			fast = false
			break
		}
		mant = mant*10 + uint64(c-'0')
		digits++
		if seenDot {
			frac++
		}
	}
	if fast && digits > 0 && digits <= 19 && mant <= 1<<53 && frac <= 22 {
		f := float64(mant) / pow10[frac]
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(b), 64) //certchain:coldpath rare shape, exact-oracle fallback
	if err != nil {
		return 0, false
	}
	return f, true
}

// epochToTime converts epoch seconds exactly as Record.GetTime does.
func epochToTime(f float64) time.Time {
	sec := int64(f)
	nsec := int64((f - float64(sec)) * 1e9)
	return time.Unix(sec, nsec).UTC()
}

// parseIntBytes parses a base-10 int with strconv.Atoi's semantics without
// allocating for inputs short enough to preclude overflow; longer inputs
// fall back to Atoi itself for exact range behaviour.
func parseIntBytes(b []byte) (int, bool) {
	i := 0
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		i++
	}
	if i == len(b) || len(b)-i > 18 {
		n, err := strconv.Atoi(string(b)) //certchain:coldpath rare shape, exact-oracle fallback
		if err != nil {
			return 0, false
		}
		return n, true
	}
	n := 0
	for j := i; j < len(b); j++ {
		c := b[j]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if i == 1 && b[0] == '-' {
		n = -n
	}
	return n, true
}

// Block-parallel load properties, driven through analysis.LoadFormatFunc:
// multi-block loads equal the one-block load and a serial reference over
// the legacy decoder, whatever the block size, reader shape or error
// position, and an early stop leaves no goroutine behind. They live beside
// the block machinery because the block size is this package's test-only
// override (export_test.go).
package zeek_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/zeek"
)

// loadCase is one ssl/x509 log pair.
type loadCase struct {
	name      string
	format    analysis.Format
	ssl, x509 []byte
}

var (
	loadCasesOnce sync.Once
	loadCasesSet  []loadCase
	loadCasesErr  error
)

// loadCases writes a small campus sample in both formats, as written
// (each observation's rows together) and shuffled (every observation's rows
// spread over the file, every third SNI rewritten so the first SNI in file
// order is distinguishable).
func loadCases(t testing.TB) []loadCase {
	t.Helper()
	loadCasesOnce.Do(func() {
		cfg := campus.DefaultConfig()
		cfg.Seed = 1
		cfg.Scale = 0.001
		s, err := campus.Generate(cfg)
		if err != nil {
			loadCasesErr = err
			return
		}
		// An even sample of the scenario keeps every kind of observation
		// and keeps the logs small enough for one-byte blocks under -race.
		var obs []*campus.Observation
		for i := 0; i < len(s.Observations); i += len(s.Observations)/150 + 1 {
			obs = append(obs, s.Observations[i])
		}
		for _, f := range []struct {
			name   string
			format analysis.Format
		}{{"tsv", analysis.FormatTSV}, {"json", analysis.FormatJSON}} {
			var ssl, x509 bytes.Buffer
			err := analysis.Write(obs, &ssl, &x509, analysis.WriteOptions{MaxConnsPerObservation: 4, Format: f.format})
			if err != nil {
				loadCasesErr = err
				return
			}
			loadCasesSet = append(loadCasesSet,
				loadCase{f.name, f.format, ssl.Bytes(), x509.Bytes()},
				loadCase{f.name + "-shuffled", f.format, shuffleRows(ssl.Bytes(), f.format), x509.Bytes()})
		}
	})
	if loadCasesErr != nil {
		t.Fatal(loadCasesErr)
	}
	return loadCasesSet
}

// shuffleRows permutes the data rows of a log among their own positions,
// leaving directive lines in place, and rewrites every third non-empty SNI.
func shuffleRows(log []byte, format analysis.Format) []byte {
	lines := strings.SplitAfter(string(log), "\n")
	var rows []int
	for i, l := range lines {
		if l != "" && l[0] != '#' {
			rows = append(rows, i)
		}
	}
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(len(rows))
	out := make([]string, len(lines))
	copy(out, lines)
	for i, p := range perm {
		l := lines[rows[p]]
		if i%3 == 0 {
			l = renameSNI(l, format, i)
		}
		out[rows[i]] = l
	}
	return []byte(strings.Join(out, ""))
}

func renameSNI(line string, format analysis.Format, n int) string {
	if format == analysis.FormatJSON {
		return strings.Replace(line, `"server_name":"`, fmt.Sprintf(`"server_name":"v%d.`, n), 1)
	}
	f := strings.Split(line, "\t")
	if len(f) > 8 && f[8] != "-" {
		f[8] = fmt.Sprintf("v%d.%s", n, f[8])
	}
	return strings.Join(f, "\t")
}

// obsSnap is a comparable view of an observation: the chain by
// fingerprint, since every load indexes its own *Meta values.
type obsSnap struct {
	Chain       []certmodel.Fingerprint
	ServerIP    string
	Port        int
	Domain      string
	Conns       int64
	Established int64
	NoSNI       int64
	ClientIPs   []string
	First, Last time.Time
	TLS13       bool
}

func snapObs(o *campus.Observation) obsSnap {
	return obsSnap{
		Chain: o.Chain.Fingerprints(), ServerIP: o.ServerIP, Port: o.Port, Domain: o.Domain,
		Conns: o.Conns, Established: o.Established, NoSNI: o.NoSNI,
		ClientIPs: append([]string(nil), o.ClientIPs...), First: o.First, Last: o.Last, TLS13: o.TLS13,
	}
}

// load runs LoadFormatFunc and returns the observations and the error text.
func load(format analysis.Format, ssl, x509 io.Reader) ([]obsSnap, string) {
	var out []obsSnap
	err := analysis.LoadFormatFunc(format, ssl, x509, func(o *campus.Observation) error {
		out = append(out, snapObs(o))
		return nil
	})
	if err != nil {
		return out, err.Error()
	}
	return out, ""
}

// loadBlocks is load at one block size; bs = oneBlock makes each log one
// block.
func loadBlocks(format analysis.Format, ssl, x509 []byte, bs int) ([]obsSnap, string) {
	if bs == oneBlock {
		bs = max(len(ssl), len(x509)) + 1
	}
	defer zeek.SetBlockSize(bs)()
	return load(format, bytes.NewReader(ssl), bytes.NewReader(x509))
}

// serialLoad is the reference: the aggregation one serial pass performs,
// over the legacy decoder.
func serialLoad(format analysis.Format, ssl, x509 []byte) ([]obsSnap, string) {
	join := zeek.Join
	if format == analysis.FormatJSON {
		join = zeek.JoinJSON
	}
	byKey := make(map[string]*obsSnap)
	var order []*obsSnap
	ips := make(map[*obsSnap]map[string]bool)
	err := join(bytes.NewReader(ssl), bytes.NewReader(x509), func(c *zeek.Connection, err error) error {
		if err != nil {
			return nil
		}
		key := string(c.Chain.AppendKey(nil)) + "|" + c.SSL.RespH + "|" + strconv.Itoa(c.SSL.RespP)
		o := byKey[key]
		if o == nil {
			o = &obsSnap{Chain: c.Chain.Fingerprints(), ServerIP: c.SSL.RespH, Port: c.SSL.RespP, First: c.SSL.TS, Last: c.SSL.TS}
			byKey[key] = o
			order = append(order, o)
			ips[o] = make(map[string]bool)
		}
		o.Conns++
		if c.SSL.Established {
			o.Established++
		}
		if c.SSL.ServerName == "" {
			o.NoSNI++
		} else if o.Domain == "" {
			o.Domain = c.SSL.ServerName
		}
		o.TLS13 = o.TLS13 || len(c.Chain) == 0
		ips[o][c.SSL.OrigH] = true
		if c.SSL.TS.Before(o.First) {
			o.First = c.SSL.TS
		}
		if c.SSL.TS.After(o.Last) {
			o.Last = c.SSL.TS
		}
		return nil
	})
	if err != nil {
		return nil, err.Error()
	}
	out := make([]obsSnap, len(order))
	for i, o := range order {
		for ip := range ips[o] {
			o.ClientIPs = append(o.ClientIPs, ip)
		}
		sort.Strings(o.ClientIPs)
		out[i] = *o
	}
	return out, ""
}

func diffLoads(t *testing.T, what string, want, got []obsSnap, wantErr, gotErr string) {
	t.Helper()
	if wantErr != gotErr {
		t.Fatalf("%s: error %q, want %q", what, gotErr, wantErr)
	}
	if wantErr != "" {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d observations, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: observation %d differs:\n got  %+v\n want %+v", what, i, got[i], want[i])
		}
	}
}

// oneBlock asks loadBlocks for one block per log.
const oneBlock = -1

// corrupt inserts a malformed line before the first line starting at or
// after byte off.
func corrupt(log []byte, format analysis.Format, off int) []byte {
	bad := "garbage\n"
	if format == analysis.FormatJSON {
		bad = "{bad\n"
	}
	i := bytes.IndexByte(log[off:], '\n')
	if i < 0 {
		return append(append([]byte(nil), log...), bad...)
	}
	at := off + i + 1
	return append(append(append([]byte(nil), log[:at]...), bad...), log[at:]...)
}

// TestLoadBlocksMatchOneBlock is the load-level property: at every block
// size, LoadFormatFunc's observations (order, counters, first-seen fields,
// client IPs) and its error text, line number included, equal the one-block
// load's and the serial reference's.
func TestLoadBlocksMatchOneBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range loadCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want, wantErr := serialLoad(c.format, c.ssl, c.x509)
			one, oneErr := loadBlocks(c.format, c.ssl, c.x509, oneBlock)
			diffLoads(t, "one block vs serial", want, one, wantErr, oneErr)
			for _, bs := range []int{7, 97, 4096} {
				got, gotErr := loadBlocks(c.format, c.ssl, c.x509, bs)
				diffLoads(t, fmt.Sprintf("block %d", bs), want, got, wantErr, gotErr)
			}
			// One-byte blocks over a prefix, which ends mid-line.
			prefix := c.ssl[:len(c.ssl)/3]
			want, wantErr = serialLoad(c.format, prefix, c.x509)
			got, gotErr := loadBlocks(c.format, prefix, c.x509, 1)
			diffLoads(t, "prefix, block 1", want, got, wantErr, gotErr)
			for _, frac := range []int{0, 3, 50, 97} {
				ssl := corrupt(c.ssl, c.format, len(c.ssl)*frac/100)
				_, wantErr := loadBlocks(c.format, ssl, c.x509, oneBlock)
				if wantErr == "" {
					t.Fatalf("corrupt at %d%%: no error", frac)
				}
				if frac == 50 {
					_, serialErr := serialLoad(c.format, ssl, c.x509)
					diffLoads(t, "corrupt at 50%, one block vs serial", nil, nil, serialErr, wantErr)
				}
				for _, bs := range []int{97, 4096} {
					_, gotErr := loadBlocks(c.format, ssl, c.x509, bs)
					diffLoads(t, fmt.Sprintf("corrupt at %d%%, block %d", frac, bs), nil, nil, wantErr, gotErr)
				}
			}
		})
	}
}

// FuzzLoadBlocks checks the load-level property on arbitrary logs: a load
// over fuzz-sized blocks equals the one-block load, observations and error
// text alike.
func FuzzLoadBlocks(f *testing.F) {
	for i, c := range loadCases(f) {
		// A few observations' rows and the certificates they deliver.
		f.Add(headLines(c.ssl, 14), headLines(c.x509, 24), c.format == analysis.FormatJSON, uint8(i*61))
	}
	f.Fuzz(func(t *testing.T, ssl, x509 []byte, json bool, bs uint8) {
		if len(ssl)+len(x509) > 1<<16 {
			t.Skip("oversized input")
		}
		format := analysis.FormatTSV
		if json {
			format = analysis.FormatJSON
		}
		want, wantErr := loadBlocks(format, ssl, x509, oneBlock)
		got, gotErr := loadBlocks(format, ssl, x509, 1+int(bs))
		diffLoads(t, fmt.Sprintf("block %d", 1+int(bs)), want, got, wantErr, gotErr)
	})
}

// headLines returns the first n lines of log.
func headLines(log []byte, n int) []byte {
	end := 0
	for ; n > 0 && end < len(log); n-- {
		i := bytes.IndexByte(log[end:], '\n')
		if i < 0 {
			return log
		}
		end += i + 1
	}
	return log[:end]
}

// stutterReader answers every other Read with (0, nil): a short read that
// is not end of stream.
type stutterReader struct {
	r    io.Reader
	skip bool
}

func (s *stutterReader) Read(p []byte) (int, error) {
	if s.skip = !s.skip; s.skip {
		return 0, nil
	}
	return s.r.Read(p)
}

// gzipMembers compresses b as two concatenated gzip members, so the
// decompressor returns a short read at the member boundary.
func gzipMembers(t *testing.T, b []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, part := range [][]byte{b[:len(b)/2], b[len(b)/2:]} {
		zw := gzip.NewWriter(&out)
		if _, err := zw.Write(part); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestLoadReaderShapes runs the load over readers that cut, stall and end
// their reads differently. Short reads — fewer bytes than asked, or none
// with a nil error — are not end of stream: every shape must give the
// plain reader's observations, and a failing reader the line readers'
// read error.
func TestLoadReaderShapes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer zeek.SetBlockSize(4096)()
	shapes := []struct {
		name string
		wrap func(b []byte) io.Reader
	}{
		{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
		{"stutter", func(b []byte) io.Reader { return &stutterReader{r: bytes.NewReader(b)} }},
		{"gzip", func(b []byte) io.Reader { return bytes.NewReader(gzipMembers(t, b)) }},
		{"gzip-half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(gzipMembers(t, b))) }},
	}
	for _, c := range loadCases(t) {
		want, wantErr := load(c.format, bytes.NewReader(c.ssl), bytes.NewReader(c.x509))
		if wantErr != "" {
			t.Fatalf("%s: plain load: %s", c.name, wantErr)
		}
		for _, sh := range shapes {
			got, gotErr := load(c.format, sh.wrap(c.ssl), sh.wrap(c.x509))
			diffLoads(t, c.name+"/"+sh.name, want, got, "", gotErr)
		}
		readErr := "zeek: read: timeout"
		if c.format == analysis.FormatJSON {
			readErr = "zeek: json scan: timeout"
		}
		timeout := func(b []byte) io.Reader { return iotest.TimeoutReader(bytes.NewReader(b)) }
		_, gotErr := load(c.format, timeout(c.ssl), bytes.NewReader(c.x509))
		diffLoads(t, c.name+"/ssl-timeout", nil, nil, readErr, gotErr)
		_, gotErr = load(c.format, bytes.NewReader(c.ssl), timeout(c.x509))
		diffLoads(t, c.name+"/x509-timeout", nil, nil, readErr, gotErr)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// settle waits for the goroutine count to drop back to n.
func settle(n int) int {
	got := runtime.NumGoroutine()
	for i := 0; i < 100 && got > n; i++ {
		time.Sleep(10 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// TestLoadEarlyExit checks that the first stream error or emit error stops
// the reader and the workers: the load reads little past the error, and
// no goroutine outlives LoadFormatFunc.
func TestLoadEarlyExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer zeek.SetBlockSize(512)()
	for _, c := range loadCases(t) {
		before := runtime.NumGoroutine()
		ssl := corrupt(c.ssl, c.format, len(c.ssl)/20)
		r := &countingReader{r: bytes.NewReader(ssl)}
		_, gotErr := load(c.format, r, bytes.NewReader(c.x509))
		if gotErr == "" {
			t.Fatalf("%s: corrupt load succeeded", c.name)
		}
		if r.n > len(ssl)/4 {
			t.Errorf("%s: read %d of %d bytes after an error at 5%%", c.name, r.n, len(ssl))
		}
		if got := settle(before); got != before {
			t.Errorf("%s: %d goroutines after a stream error, %d before", c.name, got, before)
		}

		stop := errors.New("stop")
		emitted := 0
		err := analysis.LoadFormatFunc(c.format, bytes.NewReader(c.ssl), bytes.NewReader(c.x509), func(*campus.Observation) error {
			if emitted++; emitted == 3 {
				return stop
			}
			return nil
		})
		if err != stop || emitted != 3 {
			t.Errorf("%s: emit error: got %v after %d emits", c.name, err, emitted)
		}
		if got := settle(before); got != before {
			t.Errorf("%s: %d goroutines after an emit error, %d before", c.name, got, before)
		}
	}
}

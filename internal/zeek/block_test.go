package zeek

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// blockLog writes n ssl rows over a small certificate set. Client, server
// and SNI values vary per row so every worker's interner keeps growing
// while the others run.
func blockLog(t *testing.T, n int) (ssl, x509 string) {
	t.Helper()
	var sslBuf, x509Buf strings.Builder
	now := time.Unix(1700000000, 0).UTC()
	xw := NewX509Writer(&x509Buf, now)
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("F%02d", i)
		if err := xw.Write(&X509Record{TS: now, ID: id, Subject: "CN=" + id, Issuer: "CN=Root"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := xw.Close(now); err != nil {
		t.Fatal(err)
	}
	sw := NewSSLWriter(&sslBuf, now)
	for i := 0; i < n; i++ {
		err := sw.Write(&SSLRecord{
			TS: now.Add(time.Duration(i) * time.Second), UID: fmt.Sprintf("C%d", i),
			OrigH: fmt.Sprintf("10.1.%d.%d", i/250%250, i%250), RespH: fmt.Sprintf("10.2.0.%d", i%97), RespP: 443,
			ServerName:     fmt.Sprintf("host%d.example.edu", i%131),
			CertChainFUIDs: []string{fmt.Sprintf("F%02d", i%16), fmt.Sprintf("F%02d", (i+1)%16)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(now); err != nil {
		t.Fatal(err)
	}
	return sslBuf.String(), x509Buf.String()
}

// TestFoldBlocksWorkersOwnJoiners pins the single-owner contract the
// lock-free interners rely on (run under -race in CI): every block is
// decoded by exactly one joiner, no joiner serves two workers, and the
// blocks still merge in file order. A worker's pooled *Connection is its
// joiner's identity.
func TestFoldBlocksWorkersOwnJoiners(t *testing.T) {
	const width = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	defer setBlockSize(512)()
	ssl, x509 := blockLog(t, 3000)

	type agg struct {
		joiners map[*Connection]bool
		uids    []string
	}
	joiners := make(map[*Connection]bool)
	var uids []string
	blocks := 0
	err := FoldBlocks(strings.NewReader(ssl), strings.NewReader(x509), BlockFold[*agg]{
		New: func() *agg { return &agg{joiners: make(map[*Connection]bool)} },
		Fold: func(a *agg, c *Connection, err error) {
			if err != nil {
				t.Errorf("row error: %v", err)
				return
			}
			a.joiners[c] = true
			a.uids = append(a.uids, c.SSL.UID)
		},
		Merge: func(a *agg) error {
			if len(a.uids) > 0 {
				blocks++
				if len(a.joiners) != 1 {
					t.Errorf("block %d was decoded by %d joiners", blocks, len(a.joiners))
				}
			}
			for c := range a.joiners {
				joiners[c] = true
			}
			uids = append(uids, a.uids...)
			clear(a.joiners)
			a.uids = a.uids[:0]
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocks < 10*width {
		t.Fatalf("only %d blocks; the test needs many blocks per worker", blocks)
	}
	if len(joiners) > width {
		t.Fatalf("%d joiners served %d workers", len(joiners), width)
	}
	if len(uids) != 3000 {
		t.Fatalf("merged %d rows, want 3000", len(uids))
	}
	for i, uid := range uids {
		if want := fmt.Sprintf("C%d", i); uid != want {
			t.Fatalf("row %d merged as %s, want %s: blocks merged out of file order", i, uid, want)
		}
	}
}

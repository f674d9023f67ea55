package zeek

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// incFixture builds a small ts-sorted pair of record streams: certificates
// always logged at (or before) the connections that reference them, exactly
// like Zeek writes them.
func incFixture() (ssls []*SSLRecord, x509s []*X509Record) {
	bt := true
	cert := func(id, subject, issuer string, ts time.Time) *X509Record {
		x := &X509Record{
			TS: ts, ID: id, Version: 3, Serial: "0A",
			Subject: "CN=" + subject, Issuer: "CN=" + issuer,
			NotValidBefore: ts0.AddDate(0, -1, 0), NotValidAfter: ts0.AddDate(1, 0, 0),
			KeyAlg: "rsa", SigAlg: "sha256WithRSAEncryption", KeyType: "rsa", KeyLength: 2048,
		}
		if subject == issuer {
			x.BasicConstraintsCA = &bt
		}
		return x
	}
	conn := func(uid string, ts time.Time, sni string, fuids ...string) *SSLRecord {
		return &SSLRecord{
			TS: ts, UID: uid, OrigH: "10.0.0.1", OrigP: 40000, RespH: "192.0.2.1", RespP: 443,
			Version: "TLSv12", Cipher: "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
			ServerName: sni, Established: true, CertChainFUIDs: fuids,
		}
	}
	at := func(s int) time.Time { return ts0.Add(time.Duration(s) * time.Second) }

	x509s = []*X509Record{
		cert("Fleaf1", "a.example", "Inner CA", at(0)),
		cert("Froot", "Inner CA", "Inner CA", at(0)),
		cert("Fleaf2", "b.example", "Inner CA", at(10)),
		cert("Fleaf1", "a.example", "Inner CA", at(20)), // re-logged: dup
		cert("Flate", "late.example", "Inner CA", at(40)),
	}
	ssls = []*SSLRecord{
		conn("C1", at(1), "a.example", "Fleaf1", "Froot"),
		conn("C2", at(11), "b.example", "Fleaf2", "Froot"),
		conn("C3", at(12), "", "Fmissing"), // referenced cert never logged
		conn("C4", at(21), "a.example", "Fleaf1", "Froot"),
		conn("C5", at(30), ""), // TLS 1.3 style: no chain logged
		conn("C6", at(41), "late.example", "Flate"),
	}
	return
}

// feed pushes the two streams through a joiner in the interleaving given by
// pattern ('s' = next ssl record, 'x' = next x509 record), returning the
// emitted UID sequence.
func feedJoiner(t *testing.T, j *IncrementalJoiner, emitted *[]string, pattern string) {
	t.Helper()
	ssls, x509s := incFixture()
	si, xi := 0, 0
	for _, step := range pattern {
		switch step {
		case 's':
			if err := j.AddSSL(ssls[si]); err != nil {
				t.Fatal(err)
			}
			si++
		case 'x':
			if err := j.AddX509(x509s[xi]); err != nil {
				t.Fatal(err)
			}
			xi++
		}
	}
	if si != len(ssls) || xi != len(x509s) {
		t.Fatalf("pattern %q consumed %d/%d ssl, %d/%d x509", pattern, si, len(ssls), xi, len(x509s))
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalJoinPollIndependence(t *testing.T) {
	// Each pattern is one way poll cycles could interleave the two files.
	patterns := []string{
		"xxxxxssssss", // x509 fully read first (the batch join's order)
		"ssssssxxxxx", // ssl fully read first: everything held, drained late
		"xxssxssxsxs", // alternating chunks
		"sxsxsxxssxs",
	}
	var want []string
	var wantStats JoinerStats
	for i, pat := range patterns {
		var got []string
		j := NewIncrementalJoiner(0, 0, func(c *Connection) error {
			got = append(got, c.SSL.UID)
			return nil
		})
		feedJoiner(t, j, &got, pat)
		if i == 0 {
			want, wantStats = got, j.Stats()
			// Sanity: ssl.log order, orphan dropped.
			if !reflect.DeepEqual(want, []string{"C1", "C2", "C4", "C5", "C6"}) {
				t.Fatalf("emission = %v", want)
			}
			if j.Stats().Orphans != 1 {
				t.Fatalf("orphans = %d, want 1", j.Stats().Orphans)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pattern %q emitted %v, want %v", pat, got, want)
		}
		if j.Stats() != wantStats {
			t.Errorf("pattern %q stats %+v, want %+v", pat, j.Stats(), wantStats)
		}
	}
}

func TestIncrementalJoinWatermarkHolds(t *testing.T) {
	ssls, x509s := incFixture()
	var got []string
	j := NewIncrementalJoiner(0, 0, func(c *Connection) error {
		got = append(got, c.SSL.UID)
		return nil
	})
	// C1 (ts+1) with its certs indexed but watermark still at ts+0: held.
	j.AddX509(x509s[0])
	j.AddX509(x509s[1])
	j.AddSSL(ssls[0])
	if len(got) != 0 || j.PendingDepth() != 1 {
		t.Fatalf("connection released before watermark passed: got=%v depth=%d", got, j.PendingDepth())
	}
	// Watermark moves to ts+10 > ts+1: C1 drains.
	j.AddX509(x509s[2])
	if !reflect.DeepEqual(got, []string{"C1"}) {
		t.Fatalf("after watermark advance: %v", got)
	}
}

func TestIncrementalJoinChainOrderAndContent(t *testing.T) {
	var conns []*Connection
	j := NewIncrementalJoiner(0, 0, func(c *Connection) error {
		conns = append(conns, c)
		return nil
	})
	var emitted []string
	feedJoiner(t, j, &emitted, "xxxxxssssss")
	if len(conns) != 5 {
		t.Fatalf("%d connections", len(conns))
	}
	c1 := conns[0]
	if len(c1.Chain) != 2 || c1.Chain[0].Subject.CommonName() != "a.example" || !c1.Chain[1].SelfSigned() {
		t.Errorf("C1 chain wrong: %v", c1.Chain)
	}
	if len(conns[3].Chain) != 0 {
		t.Errorf("C5 should have an empty chain")
	}
}

// TestIncrementalJoinBoundedMemory is the no-leak regression: orphaned fuids
// and an unbounded certificate history must not grow the joiner.
func TestIncrementalJoinBoundedMemory(t *testing.T) {
	j := NewIncrementalJoiner(4, 8, func(c *Connection) error { return nil })
	at := func(s int) time.Time { return ts0.Add(time.Duration(s) * time.Second) }
	for i := 0; i < 100; i++ {
		x := &X509Record{
			TS: at(i), ID: fmt.Sprintf("F%03d", i), Version: 3,
			Subject: "CN=s", Issuer: "CN=i",
			NotValidBefore: ts0, NotValidAfter: ts0.AddDate(1, 0, 0),
		}
		if err := j.AddX509(x); err != nil {
			t.Fatal(err)
		}
		if j.CertIndexSize() > 4 {
			t.Fatalf("cert index grew to %d past cap", j.CertIndexSize())
		}
	}
	if j.Stats().Evictions != 96 {
		t.Errorf("evictions = %d, want 96", j.Stats().Evictions)
	}
	// ssl records referencing long-evicted (or never-logged) certs: the hold
	// queue must stay bounded by the valve and the connections drop as
	// orphans instead of accumulating.
	for i := 0; i < 100; i++ {
		r := &SSLRecord{TS: at(200 + i), UID: fmt.Sprintf("C%03d", i), CertChainFUIDs: []string{"F000"}}
		if err := j.AddSSL(r); err != nil {
			t.Fatal(err)
		}
		if j.PendingDepth() > 8 {
			t.Fatalf("pending depth grew to %d past cap", j.PendingDepth())
		}
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
	if j.PendingDepth() != 0 {
		t.Errorf("pending depth = %d after Finish", j.PendingDepth())
	}
	st := j.Stats()
	if st.Orphans != 100 {
		t.Errorf("orphans = %d, want 100", st.Orphans)
	}
	if st.Forced == 0 {
		t.Error("capacity valve never fired")
	}
}

func TestIncrementalJoinStateRoundTrip(t *testing.T) {
	ssls, x509s := incFixture()

	run := func(split int) ([]string, JoinerStats) {
		var got []string
		emit := func(c *Connection) error { got = append(got, c.SSL.UID); return nil }
		j := NewIncrementalJoiner(0, 0, emit)
		// Interleave deterministically: all certs with ts <= conn ts first.
		xi := 0
		feedOne := func(i int) {
			for xi < len(x509s) && !x509s[xi].TS.After(ssls[i].TS) {
				if err := j.AddX509(x509s[xi]); err != nil {
					t.Fatal(err)
				}
				xi++
			}
			if err := j.AddSSL(ssls[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < split; i++ {
			feedOne(i)
		}
		if split < len(ssls) {
			// Serialize, "crash", restore into a fresh joiner.
			data, err := json.Marshal(j.State())
			if err != nil {
				t.Fatal(err)
			}
			var state JoinerState
			if err := json.Unmarshal(data, &state); err != nil {
				t.Fatal(err)
			}
			j = NewIncrementalJoiner(0, 0, emit)
			if err := j.RestoreState(&state); err != nil {
				t.Fatal(err)
			}
			for i := split; i < len(ssls); i++ {
				feedOne(i)
			}
		}
		for ; xi < len(x509s); xi++ {
			if err := j.AddX509(x509s[xi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Finish(); err != nil {
			t.Fatal(err)
		}
		return got, j.Stats()
	}

	wantEmit, wantStats := run(len(ssls))
	for split := 0; split < len(ssls); split++ {
		got, stats := run(split)
		if !reflect.DeepEqual(got, wantEmit) {
			t.Errorf("split %d emitted %v, want %v", split, got, wantEmit)
		}
		if stats != wantStats {
			t.Errorf("split %d stats %+v, want %+v", split, stats, wantStats)
		}
	}
}

// TestIncrementalJoinRestoreRejectsNullPending: a snapshot whose hold queue
// carries a null record must fail to restore; accepted, the next drain
// would dereference it.
func TestIncrementalJoinRestoreRejectsNullPending(t *testing.T) {
	for _, data := range []string{
		`{"wm":{},"stats":{},"pending":[null]}`,
		`{"wm":{},"stats":{},"pending":[{"ts":"2024-01-01T00:00:00Z","uid":"C1"},null]}`,
	} {
		var state JoinerState
		if err := json.Unmarshal([]byte(data), &state); err != nil {
			t.Fatal(err)
		}
		j := NewIncrementalJoiner(0, 0, func(*Connection) error { return nil })
		if err := j.RestoreState(&state); err == nil {
			t.Errorf("RestoreState(%s) accepted a null pending record", data)
		}
	}
}

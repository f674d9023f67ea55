package main

import (
	"testing"
	"time"
)

func TestSummarizeTailRule(t *testing.T) {
	var s []float64
	for i := 25; i >= 1; i-- {
		s = append(s, float64(i))
	}
	got := summarize(s)
	// 25 samples: the tail is rank 15 (p60), the highest with 10 above it.
	if got.N != 25 || got.P50 != 13 || got.Tail != 15 || got.TailPct != 60 || got.Beyond != 10 {
		t.Fatalf("summarize(25 samples) = %+v", got)
	}
	if s[0] != 25 {
		t.Fatal("summarize reordered its input")
	}
	if got := summarize([]float64{4, 1, 3, 2}); got.P50 != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got.P50)
	}
	// Too few samples for any percentile with 10 beyond: the maximum.
	if got := summarize([]float64{3, 9, 1}); got.Tail != 9 || got.TailPct != 100 || got.Beyond != 0 {
		t.Fatalf("short sample tail = %+v", got)
	}
	// Exact order statistics: a sample value, never a bucket edge.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i) + 0.5
	}
	if got := summarize(big); got.Tail != 989.5 || got.TailPct != 99 {
		t.Fatalf("1000-sample tail = %+v", got)
	}
	if summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.record("parent", 0, "g", "main", at(0), at(100))
	// Overlapping children cover 10..50 of the parent; the last one runs
	// past the parent's end and counts only up to it (60..100).
	tr.record("child", 1, "g", "main", at(10), at(40))
	tr.record("child", 1, "g", "other", at(30), at(50))
	tr.record("child", 1, "g", "main", at(60), at(120))
	for _, lt := range tr.selfTimes() {
		switch lt.Name {
		case "parent":
			if lt.Self != 20*time.Millisecond || lt.Total != 100*time.Millisecond {
				t.Fatalf("parent = %+v, want self 20ms of 100ms", lt)
			}
		case "child":
			if lt.Count != 3 || lt.Self != lt.Total {
				t.Fatalf("child = %+v", lt)
			}
		}
	}
}

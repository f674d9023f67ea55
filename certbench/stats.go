package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail: the tail
// is the highest percentile the sample can support with at least this many
// observations beyond it.
const tailBeyond = 10

// summary is an exact sample summary: every value is an order statistic of
// the raw samples, never an interpolated histogram bucket.
type summary struct {
	N int
	// P50 is the sample median (the mean of the two middle values when N is
	// even).
	P50 float64
	// Tail is the nearest-rank percentile TailPct, the highest one with
	// tailBeyond samples above it. With N <= tailBeyond no percentile
	// qualifies; Tail is then the maximum and TailPct is 100.
	Tail    float64
	TailPct float64
	// Beyond is the number of samples strictly above the tail's rank.
	Beyond int
}

func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: n}
	if n%2 == 1 {
		out.P50 = s[n/2]
	} else {
		out.P50 = (s[n/2-1] + s[n/2]) / 2
	}
	rank := n - tailBeyond // 1-based rank of the tail sample
	if rank < 1 {
		rank = n
	}
	out.Tail = s[rank-1]
	out.TailPct = 100 * float64(rank) / float64(n)
	out.Beyond = n - rank
	return out
}

// label renders the summary for the human-readable report lines.
func (s summary) label(unit string) string {
	return fmt.Sprintf("p50 %.3f %s, p%.1f %.3f %s (n=%d, %d beyond)",
		s.P50, unit, s.TailPct, s.Tail, unit, s.N, s.Beyond)
}

func median(samples []float64) float64 { return summarize(samples).P50 }

package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rtSample is a snapshot of the Go runtime counters the benchmark reports.
type rtSample struct {
	gcCPU, totalCPU float64 // seconds
	gcCycles        uint64
	allocBytes      uint64
	liveBytes       uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
		liveBytes:  s[4].Value.Uint64(),
	}
}

func allocMB(a, b rtSample) float64 { return float64(b.allocBytes-a.allocBytes) / (1 << 20) }

// runtimeMetrics fills the runtime.* per-layer metrics for the interval a..b.
func runtimeMetrics(m map[string]float64, a, b rtSample) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	m["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	m["runtime.alloc_mb"] = allocMB(a, b)
}

// heapWatch samples the live heap (as of the last GC) until stopped and
// keeps the maximum of each lap, one lap per pass.
//
// The sampler runs on a fixed schedule and records how late it woke for
// each due sample: on the closed-loop workloads that is the benchmark's only
// scheduled goroutine, so its lateness is their gen.late_tail_ms.
type heapWatch struct {
	base   uint64
	stop   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	last   uint64
	peak   uint64
	lateMS []float64 // read after done
}

const heapSamplePeriod = 5 * time.Millisecond

func watchHeap() *heapWatch {
	// A forced collection makes the base the live heap now, not as of a
	// collection that still saw set-up garbage.
	runtime.GC()
	h := &heapWatch{base: readRuntime().liveBytes, stop: make(chan struct{})}
	h.peak, h.last = h.base, h.base
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		start := now()
		for k := 1; ; k++ {
			h.observe()
			due := start.Add(time.Duration(k) * heapSamplePeriod)
			t := time.NewTimer(time.Until(due))
			select {
			case <-h.stop:
				t.Stop()
				return
			case <-t.C:
				late := time.Since(due)
				h.lateMS = append(h.lateMS, float64(late)/1e6)
				if late > heapSamplePeriod {
					// Skip the samples the stall swallowed.
					k += int(late / heapSamplePeriod)
				}
			}
		}
	}()
	return h
}

func (h *heapWatch) observe() {
	live := readRuntime().liveBytes
	h.mu.Lock()
	h.last = live
	h.peak = max(h.peak, live)
	h.mu.Unlock()
}

// lap returns the peak rise over the starting live heap since the previous
// lap, in MiB, and starts the next lap at the live heap now.
func (h *heapWatch) lap() float64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	rise := float64(h.peak) - float64(h.base)
	h.peak = h.last
	return max(rise, 0) / (1 << 20)
}

// done stops the sampler.
func (h *heapWatch) done() {
	close(h.stop)
	h.wg.Wait()
}

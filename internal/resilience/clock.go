// The package's jitter-and-sleep seam — its only contact with wall time.
// Every delay the retry policy takes routes through sleepCtx (injectable
// via Policy.Sleep), and the only nondeterministic value the package ever
// produces is the process-level jitter seed drawn here when a Policy leaves
// JitterSeed zero. Deterministic callers (tests, the chaos suite) set
// JitterSeed and inject a Sleep, and never touch this file's code paths.
// This file — and only this file — is allowlisted in .certchain-vet.json
// for this package's determinism findings.
package resilience

import (
	"context"
	"sync"
	"time"
)

var (
	seedOnce sync.Once
	procSeed int64
)

// processSeed draws one wall-clock seed per process, so un-seeded policies
// across a fleet jitter differently (the whole point of jitter) while any
// single process still backs off reproducibly within a run.
func processSeed() int64 {
	seedOnce.Do(func() {
		procSeed = time.Now().UnixNano()
		if procSeed == 0 {
			procSeed = 1
		}
	})
	return procSeed
}

// Sleep waits d or until ctx ends, whichever is first. It is the sanctioned
// replacement for bare time.Sleep outside this package (the resilience
// static-analysis rule flags raw sleeps): callers get cancellation for free
// and tests can drive them through a context instead of wall time.
func Sleep(ctx context.Context, d time.Duration) error {
	return sleepCtx(ctx, d)
}

// sleepCtx waits d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// sleepFor is the injector's delay primitive for SlowRead faults.
func sleepFor(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// The package's single wall-clock seam. Every other file in internal/obs is
// clock-free: tracers and loggers take their clock from here by default and
// accept an injected replacement, so tests (and the determinism suite) can
// drive spans with a synthetic clock while production code reads real time.
// This file — and only this file — is allowlisted in .certchain-vet.json.
package obs

import "time"

// wallNow is the production clock behind NewTracer. Deterministic callers
// inject their own clock via NewTracerClock instead.
func wallNow() time.Time { return time.Now() }

package analysis

// setHandoffBatch sets the handoff batch size for one test and returns the
// restore. Tests that change it must not run in parallel.
func setHandoffBatch(n int) (restore func()) {
	old := handoffBatch
	handoffBatch = n
	return func() { handoffBatch = old }
}

// SetHandoffBatch exposes setHandoffBatch to the package's external tests,
// which sweep the batch-size axis through RunParallel and RunStream.
var SetHandoffBatch = setHandoffBatch

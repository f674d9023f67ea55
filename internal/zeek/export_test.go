package zeek

// setBlockSize sets the block size for one test and returns the restore.
// Tests that change it must not run in parallel.
func setBlockSize(n int) (restore func()) {
	old := blockSize
	blockSize = n
	return func() { blockSize = old }
}

// SetBlockSize exposes setBlockSize to the package's external tests, which
// drive the block machinery through analysis.LoadFormatFunc.
var SetBlockSize = setBlockSize

package resilience_test

import (
	"path/filepath"
	"testing"

	"certchains/internal/analyzers/analyzertest"
	"certchains/internal/analyzers/resilience"
)

func TestRawNetworkAndSleep(t *testing.T) {
	got := analyzertest.Findings(t, resilience.Analyzer{}, filepath.Join("testdata", "raw"))
	analyzertest.Expect(t, got, []string{
		"raw.go:12 resilience/no-context-http",
		"raw.go:13 resilience/default-client",
		"raw.go:14 resilience/raw-dial",
		"raw.go:15 resilience/raw-dial",
		"raw.go:16 resilience/raw-sleep",
		"raw.go:17 resilience/no-header-timeout",
		"raw.go:18 resilience/no-header-timeout",
	})
}

func TestSeamedCodeIsClean(t *testing.T) {
	got := analyzertest.Findings(t, resilience.Analyzer{}, filepath.Join("testdata", "seamed"))
	analyzertest.Expect(t, got, nil)
}

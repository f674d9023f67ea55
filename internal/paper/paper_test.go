package paper

import (
	"strings"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/campus"
)

func TestVerifyAllPass(t *testing.T) {
	cfg := campus.DefaultConfig()
	cfg.Scale = 0.002
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.FromScenario(s).RunParallel(s.Observations, 0)
	checks := Verify(r)
	if len(checks) < 30 {
		t.Fatalf("only %d checks produced", len(checks))
	}
	for _, c := range Failed(checks) {
		t.Errorf("%s", c)
	}

	rr := analysis.AnalyzeRevisit(s.Classifier, s.Revisit, "Lets Encrypt")
	for _, c := range Failed(VerifyRevisit(rr)) {
		t.Errorf("%s", c)
	}
}

func TestVerifyDetectsDrift(t *testing.T) {
	cfg := campus.DefaultConfig()
	cfg.Scale = 0.001
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.FromScenario(s).RunParallel(s.Observations, 0)
	// Corrupt a structural absolute: the verifier must notice.
	r.Sec42.FakeLEChains = 7
	failed := Failed(Verify(r))
	found := false
	for _, c := range failed {
		if strings.Contains(c.Target, "Fake LE") {
			found = true
		}
	}
	if !found {
		t.Error("verifier missed a corrupted absolute")
	}
}

func TestCheckString(t *testing.T) {
	c := Check{ID: "Table 3", Target: "demo", Paper: 321, Measured: 321, Exact: true, Pass: true}
	if !strings.Contains(c.String(), "PASS") || !strings.Contains(c.String(), "exact") {
		t.Errorf("check string = %q", c.String())
	}
	c.Pass = false
	c.Exact = false
	if !strings.Contains(c.String(), "FAIL") || !strings.Contains(c.String(), "shape") {
		t.Errorf("check string = %q", c.String())
	}
}

// TestSoakLargerScale verifies every absolute and shape at a 5x larger
// scale; skipped in -short runs.
func TestSoakLargerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cfg := campus.DefaultConfig()
	cfg.Scale = 0.01
	cfg.Seed = 31337
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.FromScenario(s).RunParallel(s.Observations, 0)
	for _, c := range Failed(Verify(r)) {
		t.Errorf("%s", c)
	}
	rr := analysis.AnalyzeRevisit(s.Classifier, s.Revisit, "Lets Encrypt")
	for _, c := range Failed(VerifyRevisit(rr)) {
		t.Errorf("%s", c)
	}
}

// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index), plus ablations of the design
// choices DESIGN.md §6 calls out. Each benchmark measures the computation
// that produces the artifact and asserts its headline shape, so the suite
// doubles as an end-to-end regression check.
package certchains

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/dn"
	"certchains/internal/graph"
	"certchains/internal/intercept"
	"certchains/internal/lint"
	"certchains/internal/pki"
	"certchains/internal/scanner"
	"certchains/internal/serverfarm"
	"certchains/internal/validate"
)

// benchScale keeps generation fast while preserving every structural
// absolute (321 hybrids, 80 interception issuers, taxonomy counts).
const benchScale = 0.002

var (
	benchOnce     sync.Once
	benchScenario *campus.Scenario
	benchReport   *analysis.Report
)

func benchSetup(b *testing.B) (*campus.Scenario, *analysis.Report) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := campus.DefaultConfig()
		cfg.Scale = benchScale
		s, err := campus.Generate(cfg)
		if err != nil {
			panic(err)
		}
		benchScenario = s
		benchReport = analysis.FromScenario(s).RunParallel(s.Observations, 0)
	})
	return benchScenario, benchReport
}

// filterObs selects observations by category.
func filterObs(s *campus.Scenario, cat chain.Category) []*campus.Observation {
	var out []*campus.Observation
	for _, o := range s.Observations {
		if o.Category == cat {
			out = append(out, o)
		}
	}
	return out
}

// --- Table 1: interception issuer categories --------------------------------

func BenchmarkTable1_InterceptionCategories(b *testing.B) {
	s, _ := benchSetup(b)
	obs := filterObs(s, chain.Interception)
	det := intercept.NewDetector(s.DB, s.CT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flagged := 0
		for _, o := range obs {
			if o.Domain == "" {
				continue
			}
			if det.Examine(o.Chain[0], o.Domain, o.First) == intercept.IssuerMismatch {
				flagged++
			}
		}
		if flagged == 0 {
			b.Fatal("no interception issuers detected")
		}
	}
	b.ReportMetric(float64(s.InterceptRegistry.Len()), "issuers")
}

// --- Table 2: chain category statistics --------------------------------------

func BenchmarkTable2_ChainStats(b *testing.B) {
	s, _ := benchSetup(b)
	p := analysis.FromScenario(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.RunParallel(s.Observations, 0)
		if r.Table2.PerCategory[chain.Hybrid].Chains != 321 {
			b.Fatal("hybrid chain count drifted")
		}
	}
	b.ReportMetric(float64(len(s.Observations)), "chains")
}

// observationBytes approximates the input volume one observation carries
// into the pipeline (fingerprints, DNs, endpoint strings), so the parallel
// benchmark can report throughput via b.SetBytes.
func observationBytes(o *campus.Observation) int64 {
	n := int64(len(o.ServerIP) + len(o.Domain) + 16)
	for _, ip := range o.ClientIPs {
		n += int64(len(ip))
	}
	for _, m := range o.Chain {
		n += int64(len(m.FP) + len(m.SerialHex))
		n += int64(len(m.Issuer.Normalized()) + len(m.Subject.Normalized()))
	}
	return n
}

// BenchmarkPipelineParallel sweeps the worker pool width over the Table 2
// workload: the same full-report run BenchmarkTable2_ChainStats measures
// sequentially, at each shard count. Compare ns/op across sub-benchmarks for
// the scaling curve; every width asserts the same headline shape, so the
// sweep also re-checks determinism under load.
func BenchmarkPipelineParallel(b *testing.B) {
	s, _ := benchSetup(b)
	p := analysis.FromScenario(s)
	var inputBytes int64
	for _, o := range s.Observations {
		inputBytes += observationBytes(o)
	}
	widths := []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(inputBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := p.RunParallel(s.Observations, w)
				if r.Table2.PerCategory[chain.Hybrid].Chains != 321 {
					b.Fatal("hybrid chain count drifted")
				}
			}
			b.ReportMetric(float64(len(s.Observations)), "chains")
		})
	}
}

// --- Table 3: hybrid taxonomy -------------------------------------------------

func BenchmarkTable3_HybridTaxonomy(b *testing.B) {
	s, _ := benchSetup(b)
	obs := filterObs(s, chain.Hybrid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make(map[chain.HybridCategory]int)
		for _, o := range obs {
			counts[chain.ClassifyHybrid(s.Classifier.Analyze(o.Chain))]++
		}
		if counts[chain.HybridNoComplete] != 215 || counts[chain.HybridContainsComplete] != 70 {
			b.Fatalf("taxonomy drifted: %v", counts)
		}
	}
}

// --- Table 4: port distribution -----------------------------------------------

func BenchmarkTable4_PortDistribution(b *testing.B) {
	s, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist := make(map[int]int64)
		for _, o := range filterObs(s, chain.Interception) {
			hist[o.Port] += o.Conns
		}
		var total, p8013 int64
		for port, c := range hist {
			total += c
			if port == 8013 {
				p8013 = c
			}
		}
		if float64(p8013)/float64(total) < 0.25 {
			b.Fatal("8013 share drifted below Table 4's shape")
		}
	}
}

// --- Table 5: validation method comparison -------------------------------------

func BenchmarkTable5_ValidationComparison(b *testing.B) {
	corpus, err := validate.BuildCorpus(5, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp := validate.Compare(corpus.Chains, corpus.Registry)
		if cmp.KeySignature[validate.OutcomeUnrecognizedKey] != 3 ||
			cmp.KeySignature[validate.OutcomeParseError] != 1 {
			b.Fatal("Table 5 rare cases drifted")
		}
	}
	b.ReportMetric(float64(len(corpus.Chains)), "chains")
}

// --- Table 6: complete-path hybrid entities -------------------------------------

func BenchmarkTable6_CompletePathEntities(b *testing.B) {
	s, _ := benchSetup(b)
	obs := filterObs(s, chain.Hybrid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gov, corp := 0, 0
		for _, o := range obs {
			a := s.Classifier.Analyze(o.Chain)
			if chain.ClassifyHybrid(a) != chain.HybridCompleteNonPubToPub {
				continue
			}
			if o.Chain[0].Issuer.Organization() == "Government" {
				gov++
			} else {
				corp++
			}
		}
		if gov != 16 || corp != 10 {
			b.Fatalf("Table 6 drifted: gov=%d corp=%d", gov, corp)
		}
	}
}

// --- Table 7: no-complete-path categorization -----------------------------------

func BenchmarkTable7_NoPathCategories(b *testing.B) {
	s, _ := benchSetup(b)
	obs := filterObs(s, chain.Hybrid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make(map[chain.NoPathCategory]int)
		for _, o := range obs {
			a := s.Classifier.Analyze(o.Chain)
			if chain.ClassifyHybrid(a) == chain.HybridNoComplete {
				counts[chain.ClassifyNoPath(a)]++
			}
		}
		if counts[chain.NoPathSelfSignedLeafMismatch] != 108 {
			b.Fatalf("Table 7 drifted: %v", counts)
		}
	}
}

// --- Table 8: multi-certificate structure ----------------------------------------

func BenchmarkTable8_MultiCertPaths(b *testing.B) {
	s, _ := benchSetup(b)
	var multi []certmodel.Chain
	for _, o := range filterObs(s, chain.NonPublicDBOnly) {
		if len(o.Chain) > 1 && len(o.Chain) <= 30 {
			multi = append(multi, o.Chain)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched := 0
		for _, ch := range multi {
			if s.Classifier.Analyze(ch).MatchedVerdict == chain.VerdictCompletePath {
				matched++
			}
		}
		if float64(matched)/float64(len(multi)) < 0.97 {
			b.Fatal("matched-path share drifted below Table 8's shape")
		}
	}
	b.ReportMetric(float64(len(multi)), "multi-chains")
}

// --- Figure 1: chain-length CDFs --------------------------------------------------

func BenchmarkFigure1_ChainLengthCDF(b *testing.B) {
	s, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.FromScenario(s).RunParallel(s.Observations, 0)
		if r.Figure1.CDF[chain.NonPublicDBOnly].Share(1) < 0.70 {
			b.Fatal("Figure 1 non-public single-cert share drifted")
		}
		if len(r.Figure1.Excluded) != 3 {
			b.Fatal("pathological exclusions drifted")
		}
	}
}

// --- Figure 4: contains-path structure matrix --------------------------------------

func BenchmarkFigure4_ContainsPathStructures(b *testing.B) {
	s, r := benchSetup(b)
	_ = r
	p := analysis.FromScenario(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := p.RunParallel(s.Observations, 0)
		if len(rep.Figure4.Chains) != 70 {
			b.Fatalf("Figure 4 has %d chains", len(rep.Figure4.Chains))
		}
	}
}

// --- Figures 5, 7, 8: co-occurrence graphs ------------------------------------------

func benchGraph(b *testing.B, cat chain.Category, dropLeaves bool) *graph.Graph {
	b.Helper()
	s, _ := benchSetup(b)
	obs := filterObs(s, cat)
	var g *graph.Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = graph.New()
		for _, o := range obs {
			if len(o.Chain) > 30 {
				continue
			}
			a := s.Classifier.Analyze(o.Chain)
			g.AddChain(o.Chain, a.Classes)
		}
		if dropLeaves {
			g = g.WithoutLeaves()
		}
		if g.NodeCount() == 0 {
			b.Fatal("empty graph")
		}
		g.Components()
	}
	return g
}

func BenchmarkFigure5_HybridGraph(b *testing.B) {
	g := benchGraph(b, chain.Hybrid, false)
	pub, npub := g.ClassCounts()
	if pub == 0 || npub == 0 {
		b.Fatal("hybrid graph must mix classes")
	}
}

func BenchmarkFigure7_NonPubGraph(b *testing.B) {
	g := benchGraph(b, chain.NonPublicDBOnly, false)
	if len(g.ComplexIntermediates(3)) == 0 {
		b.Fatal("Appendix I complex intermediates missing")
	}
}

func BenchmarkFigure8_InterceptionGraph(b *testing.B) {
	g := benchGraph(b, chain.Interception, true)
	l, _, _ := g.RoleCounts()
	if l != 0 {
		b.Fatal("Figure 8 must omit leaves")
	}
}

// --- Figure 6: mismatch-ratio distribution --------------------------------------------

func BenchmarkFigure6_MismatchRatios(b *testing.B) {
	s, _ := benchSetup(b)
	obs := filterObs(s, chain.Hybrid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atOrAbove, total := 0, 0
		for _, o := range obs {
			a := s.Classifier.Analyze(o.Chain)
			if chain.ClassifyHybrid(a) != chain.HybridNoComplete {
				continue
			}
			total++
			if a.MismatchRatio >= 0.5 {
				atOrAbove++
			}
		}
		share := float64(atOrAbove) / float64(total)
		if share < 0.50 || share > 0.63 {
			b.Fatalf("Figure 6 share drifted: %v", share)
		}
	}
}

// --- §4.2: establishment rates and CT compliance -----------------------------------------

func BenchmarkSec42_EstablishmentRates(b *testing.B) {
	s, _ := benchSetup(b)
	obs := filterObs(s, chain.Hybrid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var est, tot [3]int64
		logged, anchored := 0, 0
		for _, o := range obs {
			a := s.Classifier.Analyze(o.Chain)
			var idx int
			switch a.Verdict {
			case chain.VerdictCompletePath:
				idx = 0
			case chain.VerdictContainsPath:
				idx = 1
			default:
				idx = 2
			}
			est[idx] += o.Established
			tot[idx] += o.Conns
			if chain.ClassifyHybrid(a) == chain.HybridCompleteNonPubToPub {
				anchored++
				if s.CT.Contains(o.Chain[0].FP) {
					logged++
				}
			}
		}
		rc := float64(est[0]) / float64(tot[0])
		rn := float64(est[2]) / float64(tot[2])
		if rc <= rn {
			b.Fatal("establishment ordering drifted")
		}
		if logged != anchored {
			b.Fatal("CT compliance drifted")
		}
	}
}

// --- §4.3: non-public chain characteristics -------------------------------------------------

func BenchmarkSec43_NonPubChains(b *testing.B) {
	s, _ := benchSetup(b)
	obs := filterObs(s, chain.NonPublicDBOnly)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single, selfSigned := 0, 0
		for _, o := range obs {
			if len(o.Chain) != 1 {
				continue
			}
			single++
			if o.Chain[0].SelfSigned() {
				selfSigned++
			}
		}
		if float64(selfSigned)/float64(single) < 0.88 {
			b.Fatal("self-signed share drifted")
		}
	}
}

// --- §5: retrospective scan over real TLS ----------------------------------------------------

func BenchmarkSec5_RetrospectiveScan(b *testing.B) {
	mint := pki.NewMint(55, time.Now())
	root, err := mint.NewRoot(pki.Name("Bench Root"))
	if err != nil {
		b.Fatal(err)
	}
	inter, err := root.NewIntermediate(pki.Name("Bench CA"))
	if err != nil {
		b.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(pki.Name("bench.example.test"), pki.WithSANs("bench.example.test"))
	if err != nil {
		b.Fatal(err)
	}
	farm := serverfarm.New()
	defer farm.Close()
	srv, err := farm.Add("bench.example.test", pki.Chain(leaf, inter.Cert))
	if err != nil {
		b.Fatal(err)
	}
	sc := scanner.New(5 * time.Second)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sc.Scan(ctx, srv.Addr, "bench.example.test")
		if res.Err != nil || len(res.Chain) != 2 {
			b.Fatalf("scan failed: %+v", res)
		}
	}
}

// --- §6.1: bandwidth and latency cost of unnecessary certificates ------------------------------

// BenchmarkSec61_HandshakeOverhead measures real TLS handshakes against a
// server delivering a clean two-certificate chain vs the same chain bloated
// with unnecessary certificates — the §6.1 cost the paper identifies. The
// bytes metric reports the extra certificate payload per handshake.
func BenchmarkSec61_HandshakeOverhead(b *testing.B) {
	mint := pki.NewMint(61, time.Now())
	root, err := mint.NewRoot(pki.Name("OH Root"))
	if err != nil {
		b.Fatal(err)
	}
	inter, err := root.NewIntermediate(pki.Name("OH CA"))
	if err != nil {
		b.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(pki.Name("oh.example.test"), pki.WithSANs("oh.example.test"))
	if err != nil {
		b.Fatal(err)
	}
	// Bloat: four unnecessary self-signed certificates appended.
	var bloat []*pki.Certificate
	for i := 0; i < 4; i++ {
		c, err := mint.SelfSigned(pki.Name(fmt.Sprintf("bloat-%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		bloat = append(bloat, c)
	}

	clean := pki.Chain(leaf, inter.Cert)
	bloated := append(pki.Chain(leaf, inter.Cert), bloat...)

	farm := serverfarm.New()
	defer farm.Close()
	cleanSrv, err := farm.Add("oh.example.test", clean)
	if err != nil {
		b.Fatal(err)
	}
	bloatSrv, err := farm.Add("oh.example.test", bloated)
	if err != nil {
		b.Fatal(err)
	}
	sc := scanner.New(5 * time.Second)
	ctx := context.Background()

	chainBytes := func(chain []*pki.Certificate) int {
		total := 0
		for _, c := range chain {
			total += len(c.Raw)
		}
		return total
	}
	overhead := chainBytes(bloated) - chainBytes(clean)

	b.Run("clean-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := sc.Scan(ctx, cleanSrv.Addr, "oh.example.test")
			if res.Err != nil || len(res.Chain) != 2 {
				b.Fatalf("scan: %+v", res)
			}
		}
		b.ReportMetric(float64(chainBytes(clean)), "chain-bytes")
	})
	b.Run("bloated-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := sc.Scan(ctx, bloatSrv.Addr, "oh.example.test")
			if res.Err != nil || len(res.Chain) != 6 {
				b.Fatalf("scan: %+v", res)
			}
		}
		b.ReportMetric(float64(chainBytes(bloated)), "chain-bytes")
		b.ReportMetric(float64(overhead), "wasted-bytes")
	})
}

// --- Ablations (DESIGN.md §6) ------------------------------------------------------------------

// BenchmarkAblation_DNCompare compares the normalized-string DN equality the
// analyzer uses against the order-insensitive multiset comparison.
func BenchmarkAblation_DNCompare(b *testing.B) {
	x := dn.MustParse("CN=app.service.example,OU=Platform,O=Example Corp,C=US")
	y := dn.MustParse("CN=app.service.example,OU=Platform,O=Example Corp,C=US")
	b.Run("normalized-equal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !x.Equal(y) {
				b.Fatal("not equal")
			}
		}
	})
	b.Run("multiset-equalish", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !dn.Equalish(x, y) {
				b.Fatal("not equal")
			}
		}
	})
}

// exhaustiveBestRun is the ablation baseline for matched-path search: test
// every contiguous window instead of splitting at mismatched links.
func exhaustiveBestRun(cl *chain.Classifier, ch certmodel.Chain) int {
	best := 0
	for start := 0; start < len(ch); start++ {
		for end := start; end < len(ch); end++ {
			ok := true
			for i := start; i < end; i++ {
				if !ch[i].Issuer.Equal(ch[i+1].Subject) {
					ok = false
					break
				}
			}
			if ok && end-start+1 > best {
				best = end - start + 1
			}
		}
	}
	return best
}

func BenchmarkAblation_PathSearch(b *testing.B) {
	s, _ := benchSetup(b)
	var chains []certmodel.Chain
	for _, o := range filterObs(s, chain.Hybrid) {
		chains = append(chains, o.Chain)
	}
	b.Run("linear-runs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ch := range chains {
				s.Classifier.Analyze(ch)
			}
		}
	})
	b.Run("exhaustive-windows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ch := range chains {
				exhaustiveBestRun(s.Classifier, ch)
			}
		}
	})
}

// BenchmarkAblation_CTQuery compares the domain-indexed CT query against a
// full scan of the log entries.
func BenchmarkAblation_CTQuery(b *testing.B) {
	s, _ := benchSetup(b)
	log := s.CT
	size := log.Size()
	if size == 0 {
		b.Fatal("empty CT log")
	}
	domain := log.GetEntries(0, 1)[0].Cert.Subject.CommonName()
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(log.QueryDomain(domain)) == 0 {
				b.Fatal("no entries")
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			found := 0
			for _, e := range log.GetEntries(0, size) {
				if e.Cert.Subject.CommonName() == domain {
					found++
				}
			}
			if found == 0 {
				b.Fatal("no entries")
			}
		}
	})
}

// BenchmarkAblation_ZeekParse compares streaming Zeek log parsing with a
// split-everything-at-once baseline.
func BenchmarkAblation_ZeekParse(b *testing.B) {
	s, _ := benchSetup(b)
	var subset []*campus.Observation
	for i, o := range s.Observations {
		if i%20 == 0 && len(o.Chain) <= 30 {
			subset = append(subset, o)
		}
	}
	var ssl, x509 bytes.Buffer
	if err := analysis.Write(subset, &ssl, &x509, analysis.WriteOptions{MaxConnsPerObservation: 5}); err != nil {
		b.Fatal(err)
	}
	sslData, x509Data := ssl.Bytes(), x509.Bytes()

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			obs, err := analysis.Load(bytes.NewReader(sslData), bytes.NewReader(x509Data))
			if err != nil || len(obs) == 0 {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-all-then-join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			all, err := io.ReadAll(bytes.NewReader(sslData))
			if err != nil {
				b.Fatal(err)
			}
			obs, err := analysis.Load(bytes.NewReader(all), bytes.NewReader(x509Data))
			if err != nil || len(obs) == 0 {
				b.Fatal(err)
			}
		}
	})
}

// --- §6.2 tooling: lint, repair, store completion ----------------------------------------------

func BenchmarkSec62_LintAndRepair(b *testing.B) {
	s, _ := benchSetup(b)
	l := lint.New(s.Classifier, lint.Config{Now: s.End()})
	var chains []certmodel.Chain
	for _, o := range filterObs(s, chain.Hybrid) {
		chains = append(chains, o.Chain)
	}
	b.Run("lint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			findings := 0
			for _, ch := range chains {
				findings += len(l.Chain(ch))
			}
			if findings == 0 {
				b.Fatal("hybrid population produced no lint findings")
			}
		}
	})
	b.Run("repair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fixable := 0
			for _, ch := range chains {
				if chain.ProposeRepair(s.Classifier.Analyze(ch)).Fixable {
					fixable++
				}
			}
			if fixable == 0 {
				b.Fatal("nothing repairable")
			}
		}
	})
	b.Run("store-completion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			completable := 0
			for _, ch := range chains {
				if chain.StoreCompletable(s.DB, s.Classifier.Analyze(ch)) {
					completable++
				}
			}
			if completable == 0 {
				b.Fatal("nothing store-completable")
			}
		}
	})
}

// --- full pipeline + report rendering ---------------------------------------------------------

func BenchmarkFullReportRender(b *testing.B) {
	_, r := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := r.Render()
		if len(out) < 1000 {
			b.Fatal("render too short")
		}
	}
}

// BenchmarkScenarioGeneration measures dataset generation itself.
func BenchmarkScenarioGeneration(b *testing.B) {
	cfg := campus.DefaultConfig()
	cfg.Scale = 0.001
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := campus.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf

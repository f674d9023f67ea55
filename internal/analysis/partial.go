//certchain:hotpath — observe runs once per connection observation.

package analysis

import (
	"sort"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/dga"
	"certchains/internal/graph"
	"certchains/internal/intercept"
	"certchains/internal/lint"
	"certchains/internal/stats"
)

// partialReport accumulates the enrichment of one observation shard. Every
// field is either an additive counter, a set (merged by union), a mergeable
// structure (stats.CDF, stats.Histogram, graph.Graph, dga.ClusterStats), or
// sequence-tagged (excluded outliers), so merging shard partials in any
// order and finalizing reproduces the single sequential pass byte for byte.
type partialReport struct {
	p        *Pipeline           //certchain:nomerge shared read-only pipeline config, identical across shards
	detector *intercept.Detector //certchain:nomerge shared read-only sector classifier, identical across shards

	// rep carries the Report fields that accumulate additively during the
	// observation pass; derived fields are filled by finalize.
	rep *Report

	ipSets             map[chain.Category]map[string]bool
	estByVerdict       map[chain.Verdict][2]int64 // established, total
	hybridGraph        *graph.Graph
	nonPubGraph        *graph.Graph
	interceptGraph     *graph.Graph
	detected           map[string]bool
	sectorConns        map[intercept.Category]int64
	sectorIPs          map[intercept.Category]map[string]bool
	portHist           map[string]map[int]int64
	hybridServerChains map[string]map[string]bool
	missingIssuerIPs   map[string]bool
	dgaStats           *dga.ClusterStats
	// bcSeen/bcAbsent hold distinct certificates per delivery position
	// ("first"/"sub"), as §4.3 counts them; the absent subset tracks
	// basicConstraints omission. Set sizes yield the sequential counters.
	bcSeen      map[string]map[certmodel.Fingerprint]bool
	bcAbsent    map[string]map[certmodel.Fingerprint]bool
	singleConns int64
	singleNoSNI int64
	// excluded records pathological outliers with their global observation
	// sequence number so the merged slice restores input order exactly.
	excluded []excludedLength
	// analyses caches structure analyses per unique chain key.
	analyses map[string]*chain.Analysis
	// keyBuf is a reusable scratch buffer for composite map keys. Probing
	// with m[string(keyBuf)] compiles to an allocation-free lookup; a key
	// string is materialized only on first sight of a value.
	keyBuf []byte //certchain:nomerge scratch buffer, no accumulated state
	// lintReport accumulates corpus lint findings; nil when the pipeline has
	// no linter.
	lintReport *lint.CorpusReport
}

// excludedLength is one Figure 1 outlier tagged with its observation index.
type excludedLength struct {
	seq    int
	length int
}

// newPartial creates an empty shard accumulator sharing the pipeline's
// read-only components and the (concurrency-safe) CT-mismatch detector.
func (p *Pipeline) newPartial(det *intercept.Detector) *partialReport {
	var lintReport *lint.CorpusReport
	if p.Linter != nil {
		lintReport = lint.NewCorpusReport(p.Linter)
	}
	r := &Report{}
	r.Table2.PerCategory = make(map[chain.Category]*CategoryStats)
	r.Table3.Counts = make(map[chain.HybridCategory]int)
	r.Table7.Counts = make(map[chain.NoPathCategory]int)
	r.Figure1.CDF = make(map[chain.Category]*stats.CDF)
	r.Figure6.Hist = stats.NewHistogram(0, 1, 10)
	return &partialReport{
		p:              p,
		detector:       det,
		rep:            r,
		ipSets:         make(map[chain.Category]map[string]bool),
		estByVerdict:   make(map[chain.Verdict][2]int64),
		hybridGraph:    graph.New(),
		nonPubGraph:    graph.New(),
		interceptGraph: graph.New(),
		detected:       make(map[string]bool),
		sectorConns:    make(map[intercept.Category]int64),
		sectorIPs:      make(map[intercept.Category]map[string]bool),
		portHist: map[string]map[int]int64{
			"hybrid": {}, "nonpub-single": {}, "nonpub-multi": {}, "interception": {},
		},
		hybridServerChains: make(map[string]map[string]bool),
		missingIssuerIPs:   make(map[string]bool),
		dgaStats:           dga.NewClusterStats(),
		bcSeen:             map[string]map[certmodel.Fingerprint]bool{"first": {}, "sub": {}},
		bcAbsent:           map[string]map[certmodel.Fingerprint]bool{"first": {}, "sub": {}},
		analyses:           make(map[string]*chain.Analysis),
		lintReport:         lintReport,
	}
}

// analyze returns the cached structure analysis for a chain, computing it on
// first sight within this shard. Analyses are deterministic, so shards that
// re-analyze a chain another shard also saw produce identical results.
func (pr *partialReport) analyze(ch certmodel.Chain) *chain.Analysis {
	pr.keyBuf = ch.AppendKey(pr.keyBuf[:0])
	if a, ok := pr.analyses[string(pr.keyBuf)]; ok {
		return a
	}
	key := string(pr.keyBuf)
	a := pr.p.Classifier.AnalyzeKeyed(key, ch)
	pr.analyses[key] = a
	return a
}

// observe accumulates one observation. seq is the observation's position in
// the overall input order (used only to keep outlier reporting ordered).
func (pr *partialReport) observe(seq int, o *campus.Observation) {
	r := pr.rep
	if o.TLS13 || len(o.Chain) == 0 {
		// §6.3: TLS 1.3 handshakes hide certificates from the passive
		// vantage — counted, never categorized.
		r.Sec63.TLS13Conns += o.Conns
		return
	}
	r.Sec63.VisibleConns += o.Conns
	a := pr.analyze(o.Chain)
	cat := a.Category
	if pr.lintReport != nil {
		pr.lintReport.ObserveAnalyzed(o.Chain, a, o.Conns)
	}

	// ---- Table 2 ----------------------------------------------------
	cs := r.Table2.PerCategory[cat]
	if cs == nil {
		cs = &CategoryStats{}
		r.Table2.PerCategory[cat] = cs
	}
	cs.Chains++
	cs.Conns += o.Conns
	cs.Established += o.Established
	set := pr.ipSets[cat]
	if set == nil {
		set = make(map[string]bool)
		pr.ipSets[cat] = set
	}
	for _, ip := range o.ClientIPs {
		set[ip] = true
	}

	// ---- Figure 1 ---------------------------------------------------
	if len(o.Chain) > pathologicalLength {
		pr.excluded = append(pr.excluded, excludedLength{seq: seq, length: len(o.Chain)})
	} else {
		cdf := r.Figure1.CDF[cat]
		if cdf == nil {
			cdf = stats.NewCDF()
			r.Figure1.CDF[cat] = cdf
		}
		cdf.Add(len(o.Chain), 1)
	}

	switch cat {
	case chain.Hybrid:
		pr.accumulateHybrid(o, a)
	case chain.NonPublicDBOnly:
		pr.accumulateNonPub(o, a)
	case chain.Interception:
		pr.accumulateInterception(o, a)
	}
}

func (pr *partialReport) accumulateHybrid(o *campus.Observation, a *chain.Analysis) {
	p, r := pr.p, pr.rep

	hc := chain.ClassifyHybrid(a)
	r.Table3.Counts[hc]++

	et := pr.estByVerdict[a.Verdict]
	et[0] += o.Established
	et[1] += o.Conns
	pr.estByVerdict[a.Verdict] = et

	pr.hybridGraph.AddChain(o.Chain, a.Classes)
	pr.portHist["hybrid"][o.Port] += o.Conns

	pr.keyBuf = append(pr.keyBuf[:0], o.ServerIP...)
	pr.keyBuf = append(pr.keyBuf, '|')
	pr.keyBuf = append(pr.keyBuf, o.Domain...)
	set := pr.hybridServerChains[string(pr.keyBuf)]
	if set == nil {
		set = make(map[string]bool)
		pr.hybridServerChains[string(pr.keyBuf)] = set
	}
	pr.keyBuf = o.Chain.AppendKey(pr.keyBuf[:0])
	if !set[string(pr.keyBuf)] {
		set[string(pr.keyBuf)] = true
	}

	switch hc {
	case chain.HybridCompleteNonPubToPub:
		r.Sec42.AnchoredLeaves++
		if p.CT.Contains(o.Chain[0].FP) {
			r.Sec42.CTLoggedAnchoredLeaves++
		}
		if a.HasExpiredLeaf(o.Last) {
			r.Sec42.ExpiredLeafChains++
		}
		// Table 6: the signing CA's organization attribute distinguishes
		// government PKIs from corporate deployments.
		if o.Chain[0].Issuer.Organization() == "Government" {
			r.Table6.Government++
		} else {
			r.Table6.Corporate++
		}
	case chain.HybridContainsComplete:
		if containsFakeLE(o.Chain) {
			r.Sec42.FakeLEChains++
		}
		p.classifyContains(r, a)
	case chain.HybridNoComplete:
		r.Table7.Counts[chain.ClassifyNoPath(a)]++
		r.Figure6.Hist.Add(a.MismatchRatio)
		if missingIssuer(a) {
			r.Sec42.MissingIssuerChains++
			r.Sec42.MissingIssuerConns += o.Conns
			r.Sec42.MissingIssuerEstablished += o.Established
			for _, ip := range o.ClientIPs {
				pr.missingIssuerIPs[ip] = true
			}
			if chain.StoreCompletable(p.DB, a) {
				r.Sec42.MissingIssuerStoreCompletable++
			}
		}
	}
}

func (pr *partialReport) accumulateNonPub(o *campus.Observation, a *chain.Analysis) {
	r := pr.rep
	if len(o.Chain) > pathologicalLength {
		// The oversized misconfiguration outliers are excluded from the
		// structural statistics, as in Figure 1.
		return
	}
	pr.nonPubGraph.AddChain(o.Chain, a.Classes)

	// basicConstraints omission rates over distinct non-public
	// certificates, by delivery position (§4.3).
	for i, m := range o.Chain {
		pos := "sub"
		if i == 0 {
			pos = "first"
		}
		if pr.bcSeen[pos][m.FP] {
			continue
		}
		pr.bcSeen[pos][m.FP] = true
		if m.BC == certmodel.BCAbsent {
			pr.bcAbsent[pos][m.FP] = true
		}
	}

	if len(o.Chain) == 1 {
		r.Sec43.SingleStats.Add(a)
		pr.portHist["nonpub-single"][o.Port] += o.Conns
		pr.singleConns += o.Conns
		pr.singleNoSNI += o.NoSNI
		if dga.IsDGACertificate(o.Chain[0]) {
			pr.dgaStats.Add(o.Chain[0], int(o.Conns), o.ClientIPs)
		}
		return
	}
	pr.portHist["nonpub-multi"][o.Port] += o.Conns
	switch a.MatchedVerdict {
	case chain.VerdictCompletePath:
		r.Table8.NonPub.IsMatched++
	case chain.VerdictContainsPath:
		r.Table8.NonPub.ContainsMatch++
	default:
		r.Table8.NonPub.NoMatch++
	}
	r.Table8.NonPub.MultiChains++
}

func (pr *partialReport) accumulateInterception(o *campus.Observation, a *chain.Analysis) {
	r := pr.rep

	pr.interceptGraph.AddChain(o.Chain, a.Classes)
	pr.portHist["interception"][o.Port] += o.Conns

	if len(o.Chain) == 1 {
		r.Sec43.InterceptSingle.Add(a)
	} else if len(o.Chain) <= pathologicalLength {
		switch a.MatchedVerdict {
		case chain.VerdictCompletePath:
			r.Table8.Interception.IsMatched++
		case chain.VerdictContainsPath:
			r.Table8.Interception.ContainsMatch++
		default:
			r.Table8.Interception.NoMatch++
		}
		r.Table8.Interception.MultiChains++
	}

	// Independent CT cross-reference detection (§3.2.1).
	if o.Domain != "" {
		if pr.detector.Examine(o.Chain[0], o.Domain, o.First) == intercept.IssuerMismatch {
			pr.detected[o.Chain[0].IssuerKey()] = true
		}
	}

	// Attribute to a curated entity for Table 1: match the leaf issuer or
	// any chain member's issuer against the registry.
	for _, m := range o.Chain {
		if iss, ok := pr.p.Registry.LookupKey(m.IssuerKey()); ok {
			pr.sectorConns[iss.Category] += o.Conns
			if pr.sectorIPs[iss.Category] == nil {
				pr.sectorIPs[iss.Category] = make(map[string]bool)
			}
			for _, ip := range o.ClientIPs {
				pr.sectorIPs[iss.Category][ip] = true
			}
			break
		}
	}
}

// mergeStringSet unions src into dst, allocating dst on first use.
func mergeStringSet(dst map[string]bool, src map[string]bool) map[string]bool {
	if dst == nil {
		dst = make(map[string]bool, len(src))
	}
	for k := range src {
		dst[k] = true
	}
	return dst
}

// merge folds another shard's accumulator into this one. Every operation is
// commutative and associative (counter addition, set union, monotonic graph
// merge), so any merge order yields the same final report; the one
// order-sensitive artifact — the Figure 1 outlier list — carries sequence
// tags and is sorted during finalize.
func (pr *partialReport) merge(o *partialReport) {
	r, or := pr.rep, o.rep

	// Table 2.
	for cat, ocs := range or.Table2.PerCategory {
		cs := r.Table2.PerCategory[cat]
		if cs == nil {
			cs = &CategoryStats{}
			r.Table2.PerCategory[cat] = cs
		}
		cs.Chains += ocs.Chains
		cs.Conns += ocs.Conns
		cs.Established += ocs.Established
	}
	for cat, set := range o.ipSets {
		pr.ipSets[cat] = mergeStringSet(pr.ipSets[cat], set)
	}

	// Table 3 / Table 7 counts and establishment pairs.
	for hc, n := range or.Table3.Counts {
		r.Table3.Counts[hc] += n
	}
	for nc, n := range or.Table7.Counts {
		r.Table7.Counts[nc] += n
	}
	for v, oet := range o.estByVerdict {
		et := pr.estByVerdict[v]
		et[0] += oet[0]
		et[1] += oet[1]
		pr.estByVerdict[v] = et
	}

	// Table 6, Table 8, §4.2, §4.3 additive counters.
	r.Table6.Corporate += or.Table6.Corporate
	r.Table6.Government += or.Table6.Government
	mergeMultiCert(&r.Table8.NonPub, &or.Table8.NonPub)
	mergeMultiCert(&r.Table8.Interception, &or.Table8.Interception)
	mergeSec42(&r.Sec42, &or.Sec42)
	mergeSingleCert(&r.Sec43.SingleStats, &or.Sec43.SingleStats)
	mergeSingleCert(&r.Sec43.InterceptSingle, &or.Sec43.InterceptSingle)
	r.Sec63.TLS13Conns += or.Sec63.TLS13Conns
	r.Sec63.VisibleConns += or.Sec63.VisibleConns

	// Figures 1 and 6.
	for cat, ocdf := range or.Figure1.CDF {
		cdf := r.Figure1.CDF[cat]
		if cdf == nil {
			cdf = stats.NewCDF()
			r.Figure1.CDF[cat] = cdf
		}
		cdf.Merge(ocdf)
	}
	pr.excluded = append(pr.excluded, o.excluded...)
	r.Figure6.Hist.Merge(or.Figure6.Hist)

	// Graphs.
	pr.hybridGraph.Merge(o.hybridGraph)
	pr.nonPubGraph.Merge(o.nonPubGraph)
	pr.interceptGraph.Merge(o.interceptGraph)

	// Interception attribution and CT detection.
	pr.detected = mergeStringSet(pr.detected, o.detected)
	for cat, c := range o.sectorConns {
		pr.sectorConns[cat] += c
	}
	for cat, set := range o.sectorIPs {
		pr.sectorIPs[cat] = mergeStringSet(pr.sectorIPs[cat], set)
	}

	// Ports, servers, missing issuers.
	for group, hist := range o.portHist {
		dst := pr.portHist[group]
		for port, c := range hist {
			dst[port] += c
		}
	}
	for srv, chains := range o.hybridServerChains {
		pr.hybridServerChains[srv] = mergeStringSet(pr.hybridServerChains[srv], chains)
	}
	pr.missingIssuerIPs = mergeStringSet(pr.missingIssuerIPs, o.missingIssuerIPs)

	// §4.3 distinct-certificate sets and single-cert aggregates.
	for pos, set := range o.bcSeen {
		for fp := range set {
			pr.bcSeen[pos][fp] = true
		}
	}
	for pos, set := range o.bcAbsent {
		for fp := range set {
			pr.bcAbsent[pos][fp] = true
		}
	}
	pr.singleConns += o.singleConns
	pr.singleNoSNI += o.singleNoSNI
	pr.dgaStats.Merge(o.dgaStats)

	// Analysis cache union: duplicate keys hold identical analyses.
	for k, a := range o.analyses {
		if _, ok := pr.analyses[k]; !ok {
			pr.analyses[k] = a
		}
	}

	if pr.lintReport != nil {
		pr.lintReport.Merge(o.lintReport)
	}
}

func mergeMultiCert(dst, src *MultiCertStats) {
	dst.MultiChains += src.MultiChains
	dst.IsMatched += src.IsMatched
	dst.ContainsMatch += src.ContainsMatch
	dst.NoMatch += src.NoMatch
}

func mergeSingleCert(dst, src *chain.SingleCertStats) {
	dst.Total += src.Total
	dst.SelfSigned += src.SelfSigned
	dst.DistinctNames += src.DistinctNames
}

func mergeSec42(dst, src *Sec42) {
	dst.AnchoredLeaves += src.AnchoredLeaves
	dst.CTLoggedAnchoredLeaves += src.CTLoggedAnchoredLeaves
	dst.ExpiredLeafChains += src.ExpiredLeafChains
	dst.FakeLEChains += src.FakeLEChains
	dst.MissingIssuerChains += src.MissingIssuerChains
	dst.MissingIssuerConns += src.MissingIssuerConns
	dst.MissingIssuerEstablished += src.MissingIssuerEstablished
	dst.MissingIssuerStoreCompletable += src.MissingIssuerStoreCompletable
	dst.ContainsBreakdown.FakeLE += src.ContainsBreakdown.FakeLE
	dst.ContainsBreakdown.SelfSignedAppended += src.ContainsBreakdown.SelfSignedAppended
	dst.ContainsBreakdown.LeafFirst += src.ContainsBreakdown.LeafFirst
	dst.ContainsBreakdown.ExtraRoots += src.ContainsBreakdown.ExtraRoots
	dst.ContainsBreakdown.Other += src.ContainsBreakdown.Other
	// MultiChainServers and MissingIssuerClientIPs derive from sets during
	// finalize; the per-shard values are never populated before then.
}

// finalize runs the finishing passes over the fully merged accumulator and
// returns the completed report.
func (pr *partialReport) finalize() *Report {
	p, r := pr.p, pr.rep

	sort.Slice(pr.excluded, func(i, j int) bool { return pr.excluded[i].seq < pr.excluded[j].seq })
	for _, ex := range pr.excluded {
		r.Figure1.Excluded = append(r.Figure1.Excluded, ex.length)
	}

	for cat, set := range pr.ipSets {
		r.Table2.PerCategory[cat].ClientIPs = len(set)
	}
	for _, cs := range r.Table2.PerCategory {
		r.Table2.TotalChains += cs.Chains
	}

	r.Table3.EstablishRate = make(map[chain.Verdict]float64)
	for v, et := range pr.estByVerdict {
		r.Table3.EstablishRate[v] = stats.Ratio(et[0], et[1])
	}
	for _, n := range r.Table3.Counts {
		r.Table3.Total += n
	}
	for _, n := range r.Table7.Counts {
		r.Table7.Total += n
	}
	for _, chains := range pr.hybridServerChains {
		if len(chains) > 1 {
			r.Sec42.MultiChainServers++
		}
	}
	r.Sec42.MissingIssuerClientIPs = len(pr.missingIssuerIPs)

	r.Table1 = p.buildTable1(pr.sectorConns, pr.sectorIPs, pr.detected)
	r.Table4 = buildTable4(pr.portHist)
	r.Figure4 = p.buildFigure4(pr.analyses)
	r.Figure5 = summarizeGraph(pr.hybridGraph)
	r.Figure6.ShareAtOrAbove05 = r.Figure6.Hist.ShareAbove(0.5)
	r.Figure7 = summarizeGraph(pr.nonPubGraph)
	r.Figure8 = summarizeGraph(pr.interceptGraph.WithoutLeaves())

	bcFirst, bcFirstAbsent := int64(len(pr.bcSeen["first"])), int64(len(pr.bcAbsent["first"]))
	bcSub, bcSubAbsent := int64(len(pr.bcSeen["sub"])), int64(len(pr.bcAbsent["sub"]))
	r.Sec43.BCAbsentFirst = stats.Ratio(bcFirstAbsent, bcFirst)
	r.Sec43.BCAbsentSubsequent = stats.Ratio(bcSubAbsent, bcSub)
	r.Sec43.BCFirstN = int(bcFirst)
	r.Sec43.BCSubsequentN = int(bcSub)
	r.Sec43.NoSNIShare = stats.Ratio(pr.singleNoSNI, pr.singleConns)
	r.Sec43.DGACerts = pr.dgaStats.Certificates
	r.Sec43.DGAConns = int64(pr.dgaStats.Connections)
	r.Sec43.DGAClients = len(pr.dgaStats.ClientIPs)
	if pr.dgaStats.Certificates > 0 {
		r.Sec43.DGAMinDays = pr.dgaStats.MinValidity
		r.Sec43.DGAMaxDays = pr.dgaStats.MaxValidity
	}
	if pr.lintReport != nil {
		r.Lint = pr.lintReport.Summarize()
	}
	return r
}

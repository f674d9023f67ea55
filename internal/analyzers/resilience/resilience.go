// Package resilience statically enforces the conventions the fault-injection
// layer (internal/resilience) established: every network and sleep path must
// go through the seams that fault plans and retry policies wrap. A bare
// time.Sleep can't be cancelled and never appears in a fault plan; a dial or
// HTTP helper without a context can't time out under the chaos suite; and
// http.DefaultClient has no timeout at all, so a dead server hangs the
// caller forever. On the serving side, an http.Server without a
// ReadHeaderTimeout lets a client that never finishes its headers hold a
// connection open indefinitely. The chaos-equivalence suite only proves
// resilience for code that uses the seams — this analyzer proves the seams
// are used.
package resilience

import (
	"go/ast"
	"go/token"

	"certchains/internal/analyzers"
)

// Analyzer implements analyzers.Analyzer.
type Analyzer struct{}

// Name implements analyzers.Analyzer.
func (Analyzer) Name() string { return "resilience" }

// Doc implements analyzers.Analyzer.
func (Analyzer) Doc() string {
	return "network and sleep paths must go through internal/resilience seams (cancellable, fault-injectable)"
}

// Rules implements analyzers.Analyzer.
func (Analyzer) Rules() []analyzers.RuleDoc {
	return []analyzers.RuleDoc{
		{ID: "default-client", Description: "http.DefaultClient has no timeout and bypasses the resilience RoundTripper seam"},
		{ID: "no-context-http", Description: "context-less HTTP helper (http.Get/Post/Head/PostForm) cannot be cancelled or fault-injected"},
		{ID: "no-header-timeout", Description: "http.Server literal without ReadHeaderTimeout lets a slow client hold a connection open indefinitely"},
		{ID: "raw-dial", Description: "context-less dial (net.Dial*, tls.Dial) bypasses Plan.Dial and cannot be cancelled"},
		{ID: "raw-sleep", Description: "bare time.Sleep cannot be cancelled; use a context-aware sleep or resilience.Policy backoff"},
	}
}

// noContextHTTP are the net/http package-level helpers that build requests
// without a caller context.
var noContextHTTP = map[string]bool{
	"Get": true, "Head": true, "Post": true, "PostForm": true,
}

// rawDials are the context-less dial entry points.
var rawDials = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialTCP": true, "DialUDP": true,
	"DialIP": true, "DialUnix": true,
}

// Analyze implements analyzers.Analyzer.
func (Analyzer) Analyze(fset *token.FileSet, pkg *analyzers.Package) []analyzers.Finding {
	var findings []analyzers.Finding
	for _, f := range pkg.Files {
		httpPkgs := analyzers.ImportNames(f.AST, "net/http")
		netPkgs := analyzers.ImportNames(f.AST, "net")
		tlsPkgs := analyzers.ImportNames(f.AST, "crypto/tls")
		timePkgs := analyzers.ImportNames(f.AST, "time")
		report := func(pos token.Pos, rule, msg string) {
			findings = append(findings, analyzers.Finding{
				Pos:      fset.Position(pos),
				Analyzer: "resilience",
				Rule:     rule,
				Message:  msg,
			})
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil &&
					httpPkgs[id.Name] && n.Sel.Name == "DefaultClient" {
					report(n.Pos(), "default-client",
						"http.DefaultClient has no timeout and bypasses Plan.RoundTripper; build a client with an explicit timeout or transport seam")
				}
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Server" {
					if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && httpPkgs[id.Name] && !hasKey(n, "ReadHeaderTimeout") {
						report(n.Pos(), "no-header-timeout",
							"http.Server without ReadHeaderTimeout never times out a client that stalls mid-headers; set ReadHeaderTimeout")
					}
				}
			case *ast.CallExpr:
				if fn, ok := analyzers.PkgCall(n, httpPkgs); ok && noContextHTTP[fn] {
					report(n.Pos(), "no-context-http",
						"http."+fn+" builds a request without a context; use http.NewRequestWithContext and a client wired through internal/resilience")
				}
				if fn, ok := analyzers.PkgCall(n, netPkgs); ok && rawDials[fn] {
					report(n.Pos(), "raw-dial",
						"net."+fn+" cannot be cancelled; use net.Dialer.DialContext wrapped by resilience.Plan.Dial")
				}
				if fn, ok := analyzers.PkgCall(n, tlsPkgs); ok && fn == "Dial" {
					report(n.Pos(), "raw-dial",
						"tls.Dial cannot be cancelled; use tls.Dialer.DialContext over a resilience-wrapped net dialer")
				}
				if fn, ok := analyzers.PkgCall(n, timePkgs); ok && fn == "Sleep" {
					report(n.Pos(), "raw-sleep",
						"bare time.Sleep cannot be cancelled and never appears in a fault plan; use a context-aware sleep or resilience.Policy backoff")
				}
			}
			return true
		})
	}
	analyzers.SortFindings(findings)
	return findings
}

// hasKey reports whether a composite literal sets the named field.
func hasKey(lit *ast.CompositeLit, field string) bool {
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
				return true
			}
		}
	}
	return false
}

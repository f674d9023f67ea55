// Package vet is the driver behind cmd/certchain-vet: it loads the source
// tree once, runs the selected analyzers from the project suite, applies
// the checked-in allowlist (.certchain-vet.json), and emits text, JSON, or
// SARIF.
//
// The allowlist replaces the determinism linter's hardcoded path list with
// one reviewed file. Every entry must carry a reason — suppressions are
// design decisions, and the schema makes them documented ones — and every
// entry's path must still match a real file, so entries cannot silently
// outlive the code they excused (the stale-allowlist check fails CI).
package vet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"certchains/internal/analyzers"
	"certchains/internal/analyzers/determinism"
	"certchains/internal/analyzers/hotpath"
	"certchains/internal/analyzers/locks"
	"certchains/internal/analyzers/mergefields"
	"certchains/internal/analyzers/resilience"
	"certchains/internal/lint"
)

// DefaultConfigName is the checked-in allowlist file looked up under the
// analysis root.
const DefaultConfigName = ".certchain-vet.json"

// All returns the full analyzer suite in stable order.
func All() []analyzers.Analyzer {
	return []analyzers.Analyzer{
		determinism.Suite{},
		hotpath.Analyzer{},
		locks.Analyzer{},
		mergefields.Analyzer{},
		resilience.Analyzer{},
	}
}

// Names returns the suite's analyzer names in stable order.
func Names() []string {
	var out []string
	for _, a := range All() {
		out = append(out, a.Name())
	}
	return out
}

// AllowEntry is one allowlist suppression.
type AllowEntry struct {
	// Analyzers restricts the entry to the named analyzers; empty means all.
	Analyzers []string `json:"analyzers,omitempty"`
	// Path is a slash-separated path fragment; the entry applies to files
	// whose root-relative path contains it. Mandatory.
	Path string `json:"path"`
	// Rules restricts the entry to specific rule IDs; empty suppresses every
	// finding the matching analyzers produce in matching files.
	Rules []string `json:"rules,omitempty"`
	// Reason documents why the suppression is legitimate. Mandatory.
	Reason string `json:"reason"`
}

// Config is the .certchain-vet.json schema.
type Config struct {
	// Allow lists the reviewed suppressions.
	Allow []AllowEntry `json:"allow"`
}

// LoadConfig reads and validates a config file. A missing file at the
// default location is an empty config, not an error.
func LoadConfig(path string, optional bool) (Config, error) {
	var cfg Config
	data, err := os.ReadFile(path)
	if err != nil {
		if optional && os.IsNotExist(err) {
			return cfg, nil
		}
		return cfg, fmt.Errorf("vet: read config: %w", err)
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("vet: parse %s: %w", path, err)
	}
	known := make(map[string]bool)
	for _, n := range Names() {
		known[n] = true
	}
	for i, e := range cfg.Allow {
		if e.Path == "" {
			return cfg, fmt.Errorf("vet: %s: allow[%d]: path is required", path, i)
		}
		if strings.TrimSpace(e.Reason) == "" {
			return cfg, fmt.Errorf("vet: %s: allow[%d] (path %q): reason is required", path, i, e.Path)
		}
		for _, a := range e.Analyzers {
			if !known[a] {
				return cfg, fmt.Errorf("vet: %s: allow[%d]: unknown analyzer %q (have %s)",
					path, i, a, strings.Join(Names(), ", "))
			}
		}
	}
	return cfg, nil
}

// matches reports whether the entry suppresses a finding.
func (e AllowEntry) matches(f analyzers.Finding) bool {
	if !strings.Contains(filepath.ToSlash(f.Pos.Filename), e.Path) {
		return false
	}
	if len(e.Analyzers) > 0 {
		ok := false
		for _, a := range e.Analyzers {
			if a == f.Analyzer {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(e.Rules) > 0 {
		ok := false
		for _, r := range e.Rules {
			if r == f.Rule {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Options configures one Run.
type Options struct {
	// Root is the directory to analyze.
	Root string
	// Analyzers selects analyzers by name; empty runs the whole suite.
	Analyzers []string
	// IncludeTests analyzes _test.go files too.
	IncludeTests bool
	// Config is the loaded allowlist.
	Config Config
}

// Result is one Run's outcome.
type Result struct {
	// Findings are the surviving findings in (file, line, column) order.
	Findings []analyzers.Finding
	// Suppressed counts allowlisted findings.
	Suppressed int
	// Stale lists allowlist entries whose path matches no analyzed file.
	Stale []string
	// Analyzers are the analyzers that ran, in order.
	Analyzers []analyzers.Analyzer
}

// Run loads the tree under opts.Root and applies the selected analyzers.
func Run(opts Options) (*Result, error) {
	suite, err := selectAnalyzers(opts.Analyzers)
	if err != nil {
		return nil, err
	}
	fset, pkgs, err := analyzers.Load(opts.Root, analyzers.LoadConfig{IncludeTests: opts.IncludeTests})
	if err != nil {
		return nil, err
	}

	var all []analyzers.Finding
	for _, pkg := range pkgs {
		for _, a := range suite {
			all = append(all, a.Analyze(fset, pkg)...)
		}
	}
	analyzers.SortFindings(all)

	res := &Result{Analyzers: suite}
	for _, f := range all {
		if allowed(opts.Config.Allow, f) {
			res.Suppressed++
			continue
		}
		res.Findings = append(res.Findings, f)
	}

	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			seen[f.Path] = true
		}
	}
	for _, e := range opts.Config.Allow {
		if !pathMatchesAny(e.Path, seen) {
			res.Stale = append(res.Stale,
				fmt.Sprintf("allowlist entry %q matches no analyzed file (reason: %s)", e.Path, e.Reason))
		}
	}
	sort.Strings(res.Stale)
	return res, nil
}

func allowed(entries []AllowEntry, f analyzers.Finding) bool {
	for _, e := range entries {
		if e.matches(f) {
			return true
		}
	}
	return false
}

func pathMatchesAny(frag string, files map[string]bool) bool {
	for path := range files {
		if strings.Contains(path, frag) {
			return true
		}
	}
	return false
}

// selectAnalyzers resolves names against the suite; empty selects all.
func selectAnalyzers(names []string) ([]analyzers.Analyzer, error) {
	suite := All()
	if len(names) == 0 {
		return suite, nil
	}
	byName := make(map[string]analyzers.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name()] = a
	}
	var out []analyzers.Analyzer
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("vet: unknown analyzer %q (have %s)", n, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vet: no analyzers selected")
	}
	return out, nil
}

// WriteText renders findings one per line, in the classic compiler format.
func WriteText(w io.Writer, res *Result) error {
	for _, f := range res.Findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	for _, s := range res.Stale {
		if _, err := fmt.Fprintln(w, "stale-allowlist:", s); err != nil {
			return err
		}
	}
	return nil
}

// jsonFinding is the stable JSON form of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Rule     string `json:"rule"`
	Message  string `json:"message"`
}

// jsonDocument is the JSON emitter's top-level shape.
type jsonDocument struct {
	Findings []jsonFinding `json:"findings"`
	Stale    []string      `json:"stale_allowlist,omitempty"`
	Summary  struct {
		Total      int `json:"total"`
		Suppressed int `json:"suppressed"`
	} `json:"summary"`
}

// WriteJSON emits the result as an indented JSON document with stable field
// names for CI artifacts and downstream tooling.
func WriteJSON(w io.Writer, res *Result) error {
	doc := jsonDocument{Findings: []jsonFinding{}, Stale: res.Stale}
	for _, f := range res.Findings {
		doc.Findings = append(doc.Findings, jsonFinding{
			File:     filepath.ToSlash(f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Rule:     f.Rule,
			Message:  f.Message,
		})
	}
	doc.Summary.Total = len(res.Findings)
	doc.Summary.Suppressed = res.Suppressed
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("vet: marshal json: %w", err)
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// WriteSARIF emits the result as a SARIF 2.1.0 log through the shared lint
// emitter. Rule IDs are namespaced analyzer/rule; every finding is a
// warning (the driver's exit code, not the level, gates CI).
func WriteSARIF(w io.Writer, res *Result) error {
	var rules []lint.SARIFRuleDesc
	for _, a := range res.Analyzers {
		for _, r := range a.Rules() {
			rules = append(rules, lint.SARIFRuleDesc{
				ID:    a.Name() + "/" + r.ID,
				Short: r.Description,
				Full:  r.Description + " (" + a.Doc() + ")",
			})
		}
	}
	var results []lint.SARIFResultDesc
	for _, f := range res.Findings {
		results = append(results, lint.SARIFResultDesc{
			RuleID:  f.Analyzer + "/" + f.Rule,
			Level:   "warning",
			Message: f.Message,
			URI:     filepath.ToSlash(f.Pos.Filename),
			Line:    f.Pos.Line,
		})
	}
	return lint.WriteSARIFRun(w, "certchain-vet", rules, results)
}

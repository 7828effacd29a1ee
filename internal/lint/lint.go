// Package lint implements this repository's custom static analyzers and the
// small analysis framework they run on.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer holds a name, a doc string, and a Run function over a *Pass —
// but is built purely on the standard library's go/ast and go/types so the
// module stays dependency-free. Packages are loaded by load.go via
// `go list -json -deps` and type-checked bottom-up, which gives every pass
// full type information without the x/tools loader.
//
// The analyzers encode invariants the repo has already been bitten by:
//
//	determinism  wall-clock reads, global math/rand state, and map-iteration
//	             order leaking into simulation output (the
//	             topology.PreferentialAttachment regression class)
//	seedflow     *rand.Rand constructed from seeds with no provenance
//	errflow      discarded errors from internal/stats, internal/core, and
//	             io/encoding sinks (the expt.RunSensitivity regression class)
//	ctxflow      exported gns/nomad/vantage/reliable entry points that spawn
//	             goroutines or touch the network without a context.Context
//	allocflow    always-allocating idioms inside //lint:zeroalloc-annotated
//	             hot paths and everything they statically call in the module
//	             (the Timeline.Walk / fused-scratch / Memo zero-alloc class)
//	lockflow     locks held across blocking operations and inconsistent
//	             lock acquisition order
//	atomicflow   fields accessed through sync/atomic somewhere must be
//	             accessed atomically everywhere
//
// Findings are suppressed with `//lint:allow <check> <reason>` comments; see
// allow.go for the three scopes (line, file, package). The companion
// //lint:zeroalloc annotation (zeroalloc.go) both arms allocflow and drives
// cmd/allocguard's generated AllocsPerRun tests.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one named check. Exactly one of Run and RunModule
// is set: Run is invoked once per package, RunModule once per lint.Run call
// with every loaded package in view — the shape allocflow needs, whose
// //lint:zeroalloc closures cross package boundaries.
type Analyzer struct {
	Name      string // short lower-case identifier, used in //lint:allow directives
	Doc       string // one-paragraph description of the invariant
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding, positioned in the file set of the pass that
// produced it.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A ModulePass presents every loaded package to a module-scope analyzer at
// once. Diagnostics are attributed to the package they are reported
// against, so per-package //lint:allow directives suppress them exactly as
// they do per-package findings.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags *[]moduleDiag
}

type moduleDiag struct {
	pkg *Package
	d   Diagnostic
}

// Reportf records a finding at pos inside pkg.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*mp.diags = append(*mp.diags, moduleDiag{pkg: pkg, d: Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Check:   mp.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	}})
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Seedflow, Errflow, Ctxflow, Allocflow, Lockflow, Atomicflow}
}

// A Report is the outcome of one Run: the surviving diagnostics plus an
// accounting of how many findings //lint:allow directives suppressed — CI
// uploads the counts so suppression growth stays visible over time.
type Report struct {
	Diags             []Diagnostic
	Suppressed        int
	SuppressedByCheck map[string]int
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics (after //lint:allow suppression), sorted by position, along
// with the suppressed-findings accounting. Malformed //lint:allow
// directives are themselves surfaced as findings so they cannot rot
// silently.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Report, error) {
	var diags []Diagnostic
	rep := &Report{SuppressedByCheck: map[string]int{}}
	suppress := func(allows *allowIndex, raw []Diagnostic) {
		for _, d := range raw {
			if allows.suppressed(d) {
				rep.Suppressed++
				rep.SuppressedByCheck[d.Check]++
				continue
			}
			diags = append(diags, d)
		}
	}
	allowsFor := make(map[*Package]*allowIndex, len(pkgs))
	for _, pkg := range pkgs {
		allows, malformed := collectAllows(pkg)
		allowsFor[pkg] = allows
		diags = append(diags, malformed...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			var raw []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			suppress(allows, raw)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		var raw []moduleDiag
		mp := &ModulePass{Analyzer: a, Pkgs: pkgs, diags: &raw}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
		for _, md := range raw {
			suppress(allowsFor[md.pkg], []Diagnostic{md.d})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	rep.Diags = diags
	return rep, nil
}

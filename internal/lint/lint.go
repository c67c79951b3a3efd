// Package lint is the static half of the repo's determinism contract: a
// suite of vet-style analyzers that prove, at compile time, the properties
// the runtime differential harnesses (determinism matrices, cache
// round-trips) can only spot-check after the fact. The
// suite is built directly on go/ast and go/types — deliberately no
// golang.org/x/tools dependency — and is driven through one loader
// (LoadPackages) by the standalone cmd/tcpz-vet and in-process by the repo
// self-test TestRepoIsLintClean.
//
// A diagnostic is suppressed by an annotation on the offending line or the
// line directly above it:
//
//	//tcpz:allow <analyzer> — <reason>
//
// The reason is mandatory: the allowcheck analyzer reports any annotation
// with a missing reason or an unknown analyzer name, so every exemption in
// the tree is a reviewed, explained decision. See docs/DETERMINISM.md for
// the full contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check. The shape mirrors
// golang.org/x/tools/go/analysis so the suite could migrate onto the real
// framework wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //tcpz:allow
	// annotations.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run reports violations via pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one type-checked package ready for analysis, as LoadPackages
// returns it: sources from `go list`, imports from compiler export data.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// ImportPath is the package's import path, which scopes the rules
	// (see IsDeterministicPkg).
	ImportPath string

	allows map[string][]allowDirective // filename → directives, line-sorted
	out    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a //tcpz:allow annotation for
// this analyzer covers the line (or the line above), or the position is in
// a _test.go file. Test files participate in type checking — a test
// variant must still compile — but the determinism contract binds
// production code; tests exercise nondeterminism on purpose (timeouts,
// t.TempDir, stress jitter).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if p.suppressed(position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressed(pos token.Position) bool {
	for _, d := range p.allows[pos.Filename] {
		if d.analyzer != p.Analyzer.Name {
			continue
		}
		if d.line == pos.Line || d.line == pos.Line-1 {
			return true
		}
	}
	return false
}

// allowDirective is one parsed //tcpz:allow comment.
type allowDirective struct {
	pos      token.Position
	line     int
	analyzer string
	reason   string
	// malformed records a syntax problem for allowcheck to report; empty
	// means the directive parsed cleanly.
	malformed string
}

// allowRe matches "//tcpz:allow <analyzer> — <reason>". Like all Go
// directives the comment must start exactly with the marker (no space
// after //), which keeps prose that merely quotes the syntax inert.
var allowRe = regexp.MustCompile(`^//tcpz:allow\s+(\S+)\s*(.*)$`)

const allowPrefix = "//tcpz:allow"

func parseAllow(text string, pos token.Position) (allowDirective, bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return allowDirective{}, false
	}
	m := allowRe.FindStringSubmatch(text)
	if m == nil {
		// "//tcpz:allow" with no analyzer at all.
		return allowDirective{
			pos: pos, line: pos.Line,
			malformed: "annotation names no analyzer; want //tcpz:allow <analyzer> — <reason>",
		}, true
	}
	d := allowDirective{pos: pos, line: pos.Line, analyzer: m[1]}
	rest := strings.TrimSpace(m[2])
	switch {
	case strings.HasPrefix(rest, "—"):
		d.reason = strings.TrimSpace(strings.TrimPrefix(rest, "—"))
	case strings.HasPrefix(rest, "--"):
		d.reason = strings.TrimSpace(strings.TrimPrefix(rest, "--"))
	case rest != "":
		d.malformed = "reason must be introduced by — (or --): //tcpz:allow <analyzer> — <reason>"
		return d, true
	}
	if d.reason == "" && d.malformed == "" {
		d.malformed = "annotation has no reason; every exemption must say why it is sound"
	}
	return d, true
}

// scanAllows extracts every //tcpz:allow directive, keyed by filename.
func scanAllows(fset *token.FileSet, files []*ast.File) map[string][]allowDirective {
	allows := make(map[string][]allowDirective)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//") {
					continue // block comments cannot carry directives
				}
				pos := fset.Position(c.Pos())
				if d, ok := parseAllow(c.Text, pos); ok {
					allows[pos.Filename] = append(allows[pos.Filename], d)
				}
			}
		}
	}
	return allows
}

// Check runs the analyzers over one package and returns the surviving
// diagnostics in deterministic (position, analyzer) order.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := scanAllows(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			ImportPath: pkg.ImportPath,
			allows:     allows,
			out:        &out,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// All returns the full suite in canonical order. allowcheck runs last so
// the annotations the other analyzers honour are themselves validated.
func All() []*Analyzer {
	return []*Analyzer{Nodeterm, Maporder, Allowcheck}
}

// modulePath is the import-path root of this repository.
const modulePath = "github.com/tcppuzzles/tcppuzzles"

// deterministicPkgs are the import-path roots (each covers its subtree)
// whose code runs inside — or configures — the simulation and therefore
// must be bit-for-bit replayable: no wall clock, no process environment,
// no unseeded randomness, no unordered concurrency. puzzle is included
// because the simulated protocol path runs through it; its injectable
// clock/RNG seams carry reviewed annotations.
var deterministicPkgs = []string{
	modulePath + "/internal/netsim",
	modulePath + "/internal/attacksim",
	modulePath + "/internal/clientsim",
	modulePath + "/internal/serversim",
	modulePath + "/internal/experiments",
	modulePath + "/internal/registry",
	modulePath + "/sweep",
	modulePath + "/defense",
	modulePath + "/attack",
	modulePath + "/game",
	modulePath + "/sim",
	modulePath + "/puzzle",
}

// runnerPkg is the one deterministic package allowed to start goroutines:
// the work-stealing scenario runner owns all concurrency.
const runnerPkg = modulePath + "/sim/runner"

// IsDeterministicPkg reports whether the import path falls under the
// determinism contract.
func IsDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

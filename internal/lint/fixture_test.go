package lint_test

// This file is an analysistest-style fixture harness for the analyzers,
// built on the standard library's source importer. A fixture is a
// directory of Go files type-checked as a single package under a
// caller-chosen import path (so package-scoped analyzers see realistic
// paths); expectations are `// want "regexp"` comments: each diagnostic
// an analyzer reports must be matched by a want on its line, and every
// want must be matched by a diagnostic.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/internal/lint"
)

// runFixture type-checks the fixture directory as importPath and checks
// the analyzers' diagnostics against the fixture's want comments.
func runFixture(t *testing.T, dir, importPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg := load(t, dir, importPath)
	diags, err := lint.Check(pkg, analyzers)
	if err != nil {
		t.Fatalf("lint.Check: %v", err)
	}
	wants := collectWants(t, pkg.Fset, pkg.Files)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// load parses and type-checks one fixture package. Fixture imports must be
// resolvable from source (standard library packages); module-internal
// imports would need the full loader and are deliberately unsupported —
// fixtures stay small and self-contained.
func load(t *testing.T, dir, importPath string) *lint.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("fixture dir %s holds no Go files", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", dir, err)
	}
	return &lint.Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRe extracts the expectation strings from a `// want` comment:
// double-quoted (with escapes) or backquoted regexps, one per expected
// diagnostic on that line.
var wantRe = regexp.MustCompile("//\\s*want\\s+(.*)$")

var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				args := wantArgRe.FindAllString(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s: want comment with no quoted pattern", pos)
				}
				for _, arg := range args {
					var pat string
					if arg[0] == '`' {
						pat = arg[1 : len(arg)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(arg)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, arg, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: want pattern does not compile: %v", pos, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

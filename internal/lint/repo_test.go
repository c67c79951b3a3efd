package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"

	"github.com/tcppuzzles/tcppuzzles/internal/lint"
)

// TestRepoIsLintClean runs the full analyzer suite over every package in
// the module and requires zero diagnostics — the same bar `make lint`
// enforces via go vet. Every ambient-nondeterminism seam in the tree must
// therefore be either fixed or carry a reviewed //tcpz:allow annotation,
// and the annotations themselves must be well-formed.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	root := strings.TrimSpace(string(out))

	pkgs, err := lint.LoadPackages(root, []string{"./..."})
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg, lint.All())
		if err != nil {
			t.Fatalf("Check %s: %v", pkg.ImportPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestSimulatedPrimitivesStayInTheSimulator walks every Go file of the
// repository (the nested bench module included) for the two options that
// swap SHA-256 for a keyed mix. They may be named by the packages that
// define them, by internal/serversim — the one place that sets them, on
// every simulated server — and by tests; a reference from puzzlenet or
// cmd/ would put a forgeable hash on a real network.
func TestSimulatedPrimitivesStayInTheSimulator(t *testing.T) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	root := strings.TrimSpace(string(out))
	allowed := map[string]string{
		"WithSimulatedPreimage": "puzzle",
		"WithSimulatedHash":     "syncookie",
	}
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		for name, home := range allowed {
			if !strings.Contains(string(src), name) {
				continue
			}
			seen[name+" in "+dir] = true
			if dir != home && dir != "internal/serversim" {
				t.Errorf("%s names %s; only %s, internal/serversim and tests may", rel, name, home)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	// The walk must have found what it polices, or it polices nothing.
	for _, want := range []string{
		"WithSimulatedPreimage in puzzle", "WithSimulatedPreimage in internal/serversim",
		"WithSimulatedHash in syncookie", "WithSimulatedHash in internal/serversim",
	} {
		if !seen[want] {
			t.Errorf("walk did not find %s", want)
		}
	}
}

// A citation names a section of a doc: docs/<FILE>.md, then "<Heading>"
// after at most a backtick, a comma and an opening parenthesis, or a
// markdown link to <file>.md#<anchor>.
var (
	citationRe  = regexp.MustCompile("docs/([A-Za-z_]+\\.md)`?,?\\s*\\(?\"([^\"]+)\"")
	anchorRe    = regexp.MustCompile(`\]\(([\w./-]*\.md)#([\w-]+)\)`)
	goCommentRe = regexp.MustCompile(`\n[ \t]*//[ \t]*`)
)

// TestDocCitationsNameHeadings walks every .go and .md file of the
// repository for citations of a doc section and fails on one that names
// no heading of that file, so a doc cut cannot orphan a citation. A quoted
// heading may leave off the heading's trailing parenthetical; an anchor
// is the heading's GitHub slug. A Go comment that wraps a citation is
// read as one line.
func TestDocCitationsNameHeadings(t *testing.T) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	root := strings.TrimSpace(string(out))
	headings := map[string][]string{} // path → its headings, read once
	headingsOf := func(path string) []string {
		if hs, ok := headings[path]; ok {
			return hs
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v", err)
		}
		var hs []string
		fenced := false
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			}
			if !fenced && strings.HasPrefix(line, "#") {
				hs = append(hs, strings.TrimSpace(strings.TrimLeft(line, "#")))
			}
		}
		headings[path] = hs
		return hs
	}
	cites := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".md" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(src)
		if ext == ".go" {
			text = goCommentRe.ReplaceAllString(text, " ")
		}
		rel, _ := filepath.Rel(root, path)
		for _, m := range citationRe.FindAllStringSubmatch(text, -1) {
			cites++
			cited := strings.Join(strings.Fields(m[2]), " ")
			found := false
			for _, h := range headingsOf(filepath.Join(root, "docs", m[1])) {
				found = found || h == cited || strings.HasPrefix(h, cited+" (")
			}
			if !found {
				t.Errorf("%s cites docs/%s %q, which is no heading of that file", rel, m[1], cited)
			}
		}
		for _, m := range anchorRe.FindAllStringSubmatch(text, -1) {
			if strings.Contains(m[1], "://") {
				continue
			}
			cites++
			found := false
			for _, h := range headingsOf(filepath.Join(filepath.Dir(path), m[1])) {
				found = found || slug(h) == m[2]
			}
			if !found {
				t.Errorf("%s links %s#%s, which is no heading of that file", rel, m[1], m[2])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	if cites == 0 {
		t.Fatal("the walk found no citation; it checks nothing")
	}
}

// slug is a heading's GitHub anchor: lower case, with spaces as hyphens
// and every rune but letters, digits, hyphens and underscores dropped.
func slug(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteRune('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// surfaceKeep lists the exported package-level names that may have no use
// in the shipped code (the non-test files of this module and of bench/),
// each with the reason it stays. Keys are the package path relative to the
// module ("tcppuzzles" for the root package), a dot, and the name.
var surfaceKeep = map[string]string{
	"tcppuzzles.NashParams": "README quickstart and the root package's checked Example",
	"membound.NewTable":     "membound's checked Example",

	"internal/mm1.QueueLength": "ROADMAP item 1(b): the no-attack queue-occupancy claim",
	"internal/mm1.SojournTime": "ROADMAP item 1(b): the no-attack sojourn-time claim",
	"game.ProviderPayoff":      "ROADMAP item 2(b): the one solve law prices the provider's payoff",

	"puzzlenet.WithBackendDialContext": proxyOption,
	"puzzlenet.WithBackendRetry":       proxyOption,
	"puzzlenet.WithBreaker":            proxyOption,
	"puzzlenet.WithDegradedMode":       proxyOption,
	"puzzlenet.DegradePassThrough":     proxyOption,
	"puzzlenet.WithDialTimeout":        proxyOption,
	"puzzlenet.WithIdleTimeout":        proxyOption,
	"puzzlenet.WithMaxSplices":         proxyOption,
	"puzzlenet.WithSourceRate":         proxyOption,

	"puzzlenet/netfault.Blackhole": netfaultAPI,
	"puzzlenet/netfault.DialTCP":   netfaultAPI,
	"puzzlenet/netfault.FailN":     netfaultAPI,
	"puzzlenet/netfault.Listener":  netfaultAPI,
	"puzzlenet/netfault.Refuse":    netfaultAPI,

	"sim.Run":                 simAPI,
	"sim.NoBotnet":            simAPI,
	"sim.Defense":             simAPI,
	"sim.DefenseNone":         simAPI,
	"sim.DefenseCookies":      simAPI,
	"sim.DefenseSYNCache":     simAPI,
	"sim.DefensePuzzles":      simAPI,
	"sim.DefenseHybrid":       simAPI,
	"sim.DefenseRateLimit":    simAPI,
	"sim.Attack":              simAPI,
	"sim.AttackSYNFlood":      simAPI,
	"sim.AttackConnFlood":     simAPI,
	"sim.AttackSolutionFlood": simAPI,
	"sim.AttackReplayFlood":   simAPI,
	"sim.AttackPulseFlood":    simAPI,

	"sweep.BotCounts":     "sweep's package doc: one of the grid axis constructors README builds grids from",
	"sweep.PerBotRates":   "sweep's package doc: one of the grid axis constructors README builds grids from",
	"sweep.NewTable":      "README: one of the three sinks",
	"sweep.KnownDefenses": "docs/EXPERIMENTS.md: the vocabulary TestRegistryCompleteness holds the registry to",
	"sweep.KnownAttacks":  "docs/EXPERIMENTS.md: the vocabulary TestRegistryCompleteness holds the registry to",
}

// Reasons shared by several surfaceKeep entries.
const (
	proxyOption = "ROADMAP item 10(a): tcpz-proxy wires the proxy's limits and degraded mode"
	netfaultAPI = "README and docs/ROBUSTNESS.md: the fault-injection helpers of the chaos suite"
	simAPI      = "README: the sim facade's Scenario values and entry points"
)

// TestExportedSurfaceIsUsed requires every exported package-level func,
// type, var and const of the module to be used somewhere in the shipped
// code outside its own declaration (a type's methods count as part of
// it), unless surfaceKeep names it. Methods and fields are not checked. A
// keep entry whose name is now used, or no longer exists, fails too, so
// the list names exactly the unused surface.
func TestExportedSurfaceIsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module and bench/")
	}
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	root := strings.TrimSpace(string(out))
	pkgs, err := lint.LoadPackages(root, []string{"./..."})
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	benchPkgs, err := lint.LoadPackages(filepath.Join(root, "bench"), []string{"."})
	if err != nil {
		t.Fatalf("LoadPackages bench: %v", err)
	}

	type span struct{ from, to token.Pos }
	declared := map[string][]span{} // surfaceKeep key → its declaration
	key := func(obj types.Object) string {
		path := strings.TrimPrefix(obj.Pkg().Path(), module+"/")
		if path == module {
			path = "tcppuzzles"
		}
		return path + "." + obj.Name()
	}
	declare := func(obj types.Object, node ast.Node) {
		if obj.Exported() {
			declared[key(obj)] = append(declared[key(obj)], span{node.Pos(), node.End()})
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(pkg.Info.Defs[d.Name], d)
					} else if tn, ok := receiverType(pkg.Info, d.Recv.List[0].Type); ok {
						declare(tn, d) // a type's methods are part of its declaration
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(pkg.Info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								declare(pkg.Info.Defs[name], s)
							}
						}
					}
				}
			}
		}
	}

	// A use counts unless it lies in the name's own declaration. bench/'s
	// load type-checks the module's packages again, in a file set of its
	// own: only its own packages' uses are read from it.
	used := map[string]bool{}
	markUses := func(pkg *lint.Package, ownDecl func(k string, pos token.Pos) bool) {
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
				continue // universe, local, method or field
			}
			if k := key(obj); !ownDecl(k, id.Pos()) {
				used[k] = true
			}
		}
	}
	for _, pkg := range pkgs {
		markUses(pkg, func(k string, pos token.Pos) bool {
			for _, s := range declared[k] {
				if s.from <= pos && pos < s.to {
					return true
				}
			}
			return false
		})
	}
	for _, pkg := range benchPkgs {
		if strings.HasPrefix(pkg.ImportPath, module+"/bench") {
			markUses(pkg, func(string, token.Pos) bool { return false })
		}
	}

	var unused []string
	for k := range declared {
		if !used[k] {
			unused = append(unused, k)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		if _, ok := surfaceKeep[k]; !ok {
			t.Errorf("%s is exported but nothing outside tests uses it: use it, unexport it, delete it, or keep it in surfaceKeep with the reason", k)
		}
	}
	for k := range surfaceKeep {
		if _, ok := declared[k]; !ok {
			t.Errorf("surfaceKeep names %s, which no longer exists", k)
		} else if used[k] {
			t.Errorf("surfaceKeep names %s, which shipped code now uses", k)
		}
	}
}

// receiverType returns the named type a method receiver expression (T,
// *T, T[P] or *T[P]) denotes.
func receiverType(info *types.Info, expr ast.Expr) (*types.TypeName, bool) {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			tn, ok := info.Uses[e].(*types.TypeName)
			return tn, ok
		default:
			return nil, false
		}
	}
}

package lint_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
// define them, by internal/serversim — the one place that sets them, under
// Config.SimulatedCrypto — and by tests; a reference from puzzlenet or
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

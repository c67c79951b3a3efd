package lint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the `go vet -vettool` unit-checker protocol with
// the standard library only (golang.org/x/tools is unavailable in the
// build environment, so the usual unitchecker package cannot be used).
// The protocol, as driven by cmd/go:
//
//   - `tool -V=full` prints a single line identifying the tool and a
//     content hash of its executable; cmd/go folds it into the vet action
//     cache key so rebuilding the tool invalidates cached vet results.
//   - `tool -flags` prints a JSON description of the tool's flags.
//   - `tool <file>.cfg` analyzes one package: the cfg names the Go
//     sources, the import map, and the compiler export data of every
//     dependency. Diagnostics go to stderr; exit status 2 means findings.
//     The tool must write cfg.VetxOutput (facts for downstream packages —
//     empty here, the suite uses none) even when it reports nothing.
//
// cmd/go invokes the tool once per dependency with VetxOnly=true purely to
// produce facts; those invocations skip analysis entirely.

// vetConfig mirrors the JSON written by cmd/go for each vet unit.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point shared by cmd/tcpz-vet: it dispatches between
// the unit-checker protocol (driven by `go vet -vettool`) and standalone
// package patterns (`tcpz-vet ./...`). It returns the process exit code.
func Main(args []string) int {
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		return printVersion()
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
		return 0
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		return runUnit(args[0])
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(os.Stderr, "tcpz-vet: unknown flag %s\nusage: tcpz-vet [packages] | go vet -vettool=$(which tcpz-vet) [packages]\n", p)
			return 1
		}
	}
	return runStandalone(patterns)
}

// printVersion implements -V=full: name, version, and a hash of the
// executable so cmd/go's vet cache invalidates when the tool changes.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s version tcpz-vet-1 buildID=%x\n", filepath.Base(exe), h.Sum(nil))
	return 0
}

// runUnit analyzes one vet unit described by a cfg file.
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "tcpz-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite computes no cross-package facts, but cmd/go requires the
	// vetx output to exist before it will trust the run.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("tcpz-vet: no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	pkg, err := checkFiles(fset, importer.ForCompiler(fset, compiler, lookup), cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, err := Check(pkg, All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// runStandalone loads packages through the go toolchain and analyzes the
// module's own packages — the same work `go vet -vettool` drives, without
// needing the vet harness (used directly and by TestRepoIsLintClean).
func runStandalone(patterns []string) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := LoadPackages(wd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	total := 0
	for _, pkg := range pkgs {
		diags, err := Check(pkg, All())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
		total += len(diags)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "tcpz-vet: %d diagnostic(s)\n", total)
		return 2
	}
	return 0
}

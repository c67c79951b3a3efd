package lint

import (
	"fmt"
	"os"
	"strings"
)

// Main is the entry point of cmd/tcpz-vet: it loads the packages matching
// the patterns (default ./...) through LoadPackages — the loader
// TestRepoIsLintClean uses — and runs the whole suite over the module's
// own packages. Diagnostics go to stderr. It returns the process exit
// code: 0 clean, 1 on a usage or load error, 2 on findings.
func Main(args []string) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(os.Stderr, "tcpz-vet: unknown flag %s\nusage: tcpz-vet [packages]\n", p)
			return 1
		}
	}
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
			fmt.Fprintln(os.Stderr, d)
		}
		total += len(diags)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "tcpz-vet: %d diagnostic(s)\n", total)
		return 2
	}
	return 0
}

package lint

import (
	"fmt"
	"sort"
	"strings"
)

// Allowcheck validates the suppression annotations themselves: a
// //tcpz:allow comment must name a real analyzer and carry a non-empty
// reason after an em dash (or --). A malformed annotation still
// suppresses its target — so the build surfaces exactly one actionable
// diagnostic, this one — but it cannot land: the self-test and `make
// lint` pin zero diagnostics of any kind. Allowcheck diagnostics are not
// themselves suppressible.
var Allowcheck = &Analyzer{
	Name: "allowcheck",
	Doc: "require //tcpz:allow annotations to name a known analyzer and " +
		"give a reason",
	Run: runAllowcheck,
}

func runAllowcheck(pass *Pass) error {
	known := map[string]bool{Nodeterm.Name: true, Maporder.Name: true}
	files := make([]string, 0, len(pass.allows))
	for name := range pass.allows {
		files = append(files, name)
	}
	sort.Strings(files)
	for _, name := range files {
		for _, d := range pass.allows[name] {
			switch {
			case d.malformed != "":
				pass.reportUnsuppressable(d, "malformed //tcpz:allow: %s", d.malformed)
			case !known[d.analyzer]:
				pass.reportUnsuppressable(d, "//tcpz:allow names unknown analyzer %q (known: nodeterm, maporder)", d.analyzer)
			}
		}
	}
	return nil
}

// reportUnsuppressable records a diagnostic at a directive's own position,
// bypassing the suppression check: an annotation cannot excuse itself.
func (p *Pass) reportUnsuppressable(d allowDirective, format string, args ...any) {
	if strings.HasSuffix(d.pos.Filename, "_test.go") {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      d.pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

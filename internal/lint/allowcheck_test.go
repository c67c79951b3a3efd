package lint_test

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/internal/lint"
)

// The allowcheck fixture runs with nodeterm active so it can show both
// halves of the contract: a malformed annotation still suppresses its
// target (leaving only the allowcheck diagnostic), while an annotation
// naming an unknown analyzer suppresses nothing.
func TestAllowcheck(t *testing.T) {
	runFixture(t, "testdata/src/allowcheck/allow", module+"/internal/netsim",
		lint.Nodeterm, lint.Allowcheck)
}

package lint_test

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/internal/lint"
)

const module = "github.com/tcppuzzles/tcppuzzles"

func TestNodetermInDeterministicPackage(t *testing.T) {
	runFixture(t, "testdata/src/nodeterm/determ", module+"/internal/netsim", lint.Nodeterm)
}

func TestNodetermSilentOutsideContract(t *testing.T) {
	runFixture(t, "testdata/src/nodeterm/outside", module+"/puzzlenet", lint.Nodeterm)
}

func TestNodetermRunnerMayStartGoroutines(t *testing.T) {
	runFixture(t, "testdata/src/nodeterm/runner", module+"/sim/runner", lint.Nodeterm)
}

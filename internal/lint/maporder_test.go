package lint_test

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/internal/lint"
)

func TestMaporder(t *testing.T) {
	runFixture(t, "testdata/src/maporder/maps", module+"/internal/netsim", lint.Maporder)
}

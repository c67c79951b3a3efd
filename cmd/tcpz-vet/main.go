// Command tcpz-vet runs the repo's determinism-contract analyzer suite
// (internal/lint): nodeterm, maporder, plus validation of the
// //tcpz:allow suppression annotations.
//
//	go run ./cmd/tcpz-vet ./...   # make lint, CI
//
// It loads packages with `go list -export` through the same loader as the
// TestRepoIsLintClean self-test, and exits 2 on any diagnostic. See
// docs/DETERMINISM.md for the rules the suite enforces and the suppression
// syntax.
package main

import (
	"os"

	"github.com/tcppuzzles/tcppuzzles/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:]))
}

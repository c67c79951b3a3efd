// Command tcpz-vet runs the repo's determinism-contract analyzer suite
// (internal/lint): nodeterm, maporder, hashfield, plus
// validation of the //tcpz:allow suppression annotations.
//
// Two ways to drive it:
//
//	go build -o bin/tcpz-vet ./cmd/tcpz-vet
//	go vet -vettool=$PWD/bin/tcpz-vet ./...   # vet harness (make lint, CI)
//	bin/tcpz-vet ./...                        # standalone
//
// See docs/DETERMINISM.md for the rules the suite enforces and the
// suppression syntax.
package main

import (
	"os"

	"github.com/tcppuzzles/tcppuzzles/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:]))
}

//go:build !unix

package sweep

import "os"

// readFile returns the file at path; buf, the unix read's buffer, is unused.
func readFile(path string, _ []byte) ([]byte, error) { return os.ReadFile(path) }

// Command truthlint is the project's static-analysis gate: it
// type-checks the module with only the standard library (go/parser,
// go/types) and runs the eleven analyzers described in DESIGN.md §8
// and §13 — atomicmix, ctcompare, determinism, errcheck, floatcmp,
// goroleak, noalloc, panicpolicy, snapshotimmut, testonly, wireorder.
//
// Usage:
//
//	truthlint [-json] [-<analyzer>=false ...] [package pattern ...]
//
// Patterns are module-root-relative and default to ./... (which, like
// the go tool, skips testdata). Exit code 0 means clean, 1 means
// findings, 2 means a usage or load error. Intended violations are
// annotated in place with //lint:allow <analyzer> <reason>; a bare
// allow without a reason is itself a finding.
package main

import (
	"os"

	"truthroute/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}

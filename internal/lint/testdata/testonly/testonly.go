// Package testonly is a truthlint golden fixture for the testonly
// analyzer. Its callers live in its own subtree: cmd/tool is a main
// package, examples/demo an example program, and testonly_test.go a
// test file whose uses do not count.
package testonly

// OnlyTested is called from testonly_test.go and nowhere else.
func OnlyTested() int { return 1 } // want `exported function OnlyTested has no non-test reference`

// Meter is a type whose Reset method only a test calls.
type Meter struct{ n int }

// Reset is called from testonly_test.go and nowhere else.
func (m *Meter) Reset() { m.n = 0 } // want `exported method Reset has no non-test reference`

// Read is live: ForTool calls it.
func (m *Meter) Read() int { return m.n }

// Shape is satisfied by Square.
type Shape interface{ Area() float64 }

// Square's Area is never named, but dynamic dispatch through Shape
// reaches it, so it is live.
type Square struct{ Side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// ForTool is called only by the cmd/tool main package.
func ForTool() int { return (&Meter{}).Read() + helper() }

// ForExample is called only by the examples/demo program.
func ForExample() string { return "demo" }

// Reasoned is test-only, and says why it stays.
//
//lint:allow testonly fixture demonstrates the happy path
func Reasoned() {}

// Bare is test-only with an allow that gives no reason, so the
// finding stands and the directive is flagged too.
//
//lint:allow testonly // want `lint:allow testonly needs a reason`
func Bare() {} // want `exported function Bare has no non-test reference`

// Stale has a caller, so its allow suppresses nothing.
//
//lint:allow testonly kept for a caller that has since appeared // want `lint:allow testonly suppresses nothing`
func Stale() int { return 2 }

// helper is unexported: testonly looks only at exports.
func helper() int { return Stale() }

package testonly

import "testing"

func TestFixture(t *testing.T) {
	var m Meter
	m.Reset()
	var s Shape = Square{Side: 2}
	if OnlyTested() != 1 || s.Area() != 4 {
		t.Fatal("fixture arithmetic")
	}
	Reasoned()
	Bare()
}

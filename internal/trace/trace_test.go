package trace

import "testing"

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" || Fetch.String() != "F" {
		t.Error("op strings wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Errorf("unknown op string = %q", Op(9).String())
	}
}

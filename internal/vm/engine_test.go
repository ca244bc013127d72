package vm_test

import (
	"errors"
	"testing"

	"maligo/internal/vm"
)

// TestParseEngineTable pins the engine-name grammar of the
// MALIGO_ENGINE variable: every accepted spelling, and the typed
// ErrUnknownEngine for everything else — never a silent fall-back.
func TestParseEngineTable(t *testing.T) {
	cases := []struct {
		in   string
		want vm.Engine
		ok   bool
	}{
		{"", vm.EngineAuto, true},
		{"auto", vm.EngineAuto, true},
		{"interp", vm.EngineInterp, true},
		{"interpreter", vm.EngineInterp, true},
		{"compiled", vm.EngineCompiled, true},
		{" compiled ", vm.EngineCompiled, true},
		{"lanes", 0, false},
		{"lane", 0, false},
		{"simt", 0, false},
		{"LANES", 0, false},
		{"fast", 0, false},
		{"interp2", 0, false},
		{"lanes,compiled", 0, false},
		{"gpu", 0, false},
	}
	for _, c := range cases {
		got, err := vm.ParseEngine(c.in)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseEngine(%q) = %v, %v; want %v, nil", c.in, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseEngine(%q) accepted an invalid name as %v", c.in, got)
			continue
		}
		if !errors.Is(err, vm.ErrUnknownEngine) {
			t.Errorf("ParseEngine(%q) error %v is not ErrUnknownEngine", c.in, err)
		}
	}
}

package vm

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

// Engine selects which of the VM's two execution engines runs a
// work-group.
//
// The interpreter (EngineInterp) is the reference engine: a simple
// switch-dispatch loop over the kernel IR, kept deliberately plain so
// its behaviour is auditable. The compiled engine (EngineCompiled)
// translates the IR once per kernel into a flat program of pre-decoded
// Go closures — operands resolved, register slots bound, common
// adjacent pairs fused into superinstructions — and caches the result
// on the kernel object. Both engines produce bit-identical memory
// contents, execution profiles, observer callback streams and faults;
// the differential test suite and FuzzEngineEquivalence enforce that,
// which is what lets the fast path be the default without changing any
// observable.
type Engine uint8

// Engines.
const (
	// EngineAuto selects the default engine (the compiled fast path).
	EngineAuto Engine = iota
	// EngineInterp forces the reference switch-dispatch interpreter.
	EngineInterp
	// EngineCompiled forces the closure-compiled fast path.
	EngineCompiled
)

func (e Engine) String() string {
	switch e {
	case EngineInterp:
		return "interp"
	case EngineCompiled:
		return "compiled"
	default:
		return "auto"
	}
}

// UseCompiled reports whether this engine choice runs pre-decoded
// units rather than the reference interpreter (EngineAuto resolves to
// the compiled engine).
func (e Engine) UseCompiled() bool { return e != EngineInterp }

// ErrUnknownEngine is the typed error ParseEngine wraps for
// unrecognized engine names, so flag and environment plumbing at every
// layer can errors.Is against it instead of matching strings.
var ErrUnknownEngine = errors.New("vm: unknown engine")

// ParseEngine parses an engine name: "auto" (or empty), "interp" /
// "interpreter", "compiled". Unknown names return an error wrapping
// ErrUnknownEngine.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return EngineAuto, nil
	case "interp", "interpreter":
		return EngineInterp, nil
	case "compiled", "compile", "closure":
		return EngineCompiled, nil
	}
	return EngineAuto, fmt.Errorf("%w %q (auto, interp, compiled)", ErrUnknownEngine, s)
}

// EngineEnvVar is the environment escape hatch consulted by
// EngineFromEnv: set MALIGO_ENGINE=interp to force the reference
// interpreter process-wide (e.g. to cross-check a result) without
// touching any code or flags.
const EngineEnvVar = "MALIGO_ENGINE"

// EngineFromEnv returns the engine selected by the MALIGO_ENGINE
// environment variable, or EngineAuto when unset or unparsable.
// Entry points that can report errors should prefer
// EngineFromEnvStrict so a typo in the variable fails loudly instead
// of silently running the default engine.
func EngineFromEnv() Engine {
	e, err := ParseEngine(os.Getenv(EngineEnvVar))
	if err != nil {
		return EngineAuto
	}
	return e
}

// EngineFromEnvStrict returns the engine selected by MALIGO_ENGINE,
// or an error wrapping ErrUnknownEngine when the variable is set to an
// unparsable value. An unset (or empty) variable is EngineAuto.
func EngineFromEnvStrict() (Engine, error) {
	return ParseEngine(os.Getenv(EngineEnvVar))
}

// Package backend writes compiled kernel IR out of the process.
//
// The execution engines in internal/vm consume ir.Kernel directly; this
// package is the other side of that contract: it treats the IR as a
// stable input language and renders it as IRDump, a canonical,
// versioned textual dump of one kernel. Byte-stable across runs, the
// dump is the snapshot format the test suites lock down (backend and
// transform goldens), the before/after listing of `clc -optimize -dis`,
// and the interchange format for external tooling.
//
// IRDump is a pure function of the kernel: no global state, no engine
// coupling, deterministic output.
package backend

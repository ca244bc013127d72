package opt

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maligo/internal/clc/backend"
)

var updateGolden = flag.Bool("update", false, "rewrite the transform golden files")

// renderGolden produces the committed before/after dump for one
// corpus source: the applied-pass summary, then each kernel's irdump
// before and after the full pipeline. The irdump format is versioned,
// so the goldens are stable across unrelated compiler work.
func renderGolden(t *testing.T, name, src string) string {
	t.Helper()
	prog, out, rep := optimizeOne(t, src, nil)
	var b strings.Builder
	fmt.Fprintf(&b, "; transform golden for %s\n", name)
	applied := rep.AppliedPasses()
	if len(applied) == 0 {
		b.WriteString("; passes applied: (none)\n")
	} else {
		fmt.Fprintf(&b, "; passes applied: %s\n", strings.Join(applied, ", "))
	}
	for _, kn := range kernelNames(prog) {
		before, err := backend.IRDump(prog.Kernels[kn])
		if err != nil {
			t.Fatalf("irdump before %s: %v", kn, err)
		}
		after, err := backend.IRDump(out.Kernels[kn])
		if err != nil {
			t.Fatalf("irdump after %s: %v", kn, err)
		}
		fmt.Fprintf(&b, "\n== BEFORE %s ==\n%s\n== AFTER %s ==\n%s", kn, before, kn, after)
	}
	return b.String()
}

// TestGoldenCorpus locks the exact transformed IR for one exemplar
// kernel per pass (plus a refuse-everything case). Run with -update
// after an intentional codegen change; the diff in the golden file is
// the review artifact.
func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden corpus sources found: %v", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".cl")
		t.Run(name, func(t *testing.T) {
			srcBytes, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(t, name, string(srcBytes))
			// Two independent pipeline runs must render identically
			// before a golden is written or compared: goldens may not
			// encode one lucky map ordering.
			if again := renderGolden(t, name, string(srcBytes)); again != got {
				t.Fatal("transform output is nondeterministic between identical runs")
			}
			goldenPath := strings.TrimSuffix(f, ".cl") + ".ir.golden"
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(want, []byte(got)) {
				t.Errorf("golden mismatch for %s; run `go test ./internal/clc/opt -run TestGoldenCorpus -update` after verifying the new IR\ngot:\n%s", name, got)
			}
		})
	}
}

package dataflow_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/analysis/dataflow"
)

var update = flag.Bool("update", false, "rewrite the dataflow facts goldens")

// TestFactsGolden locks every fact the engine derives for every kernel
// of the nine benchmarks at both precisions. The solver's state
// representation may change freely; its results may not. Refresh with
// `go test ./internal/clc/analysis/dataflow -run TestFactsGolden -update`
// only after an intentional change to the facts themselves.
func TestFactsGolden(t *testing.T) {
	for _, b := range bench.All() {
		for _, prec := range []bench.Precision{bench.F32, bench.F64} {
			name := b.Name() + "_" + prec.String()
			t.Run(name, func(t *testing.T) {
				prog, err := clc.Compile(b.Name()+".cl", b.Source(), prec.BuildOptions())
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				var got strings.Builder
				for _, kn := range prog.KernelNames() {
					got.WriteString(dataflow.GoldenFacts(prog.Kernels[kn]))
					got.WriteByte('\n')
				}
				path := filepath.Join("testdata", "facts", name+".golden")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if got.String() != string(want) {
					t.Errorf("facts differ from %s", path)
				}
			})
		}
	}
}

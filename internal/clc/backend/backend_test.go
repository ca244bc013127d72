package backend_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/backend"
)

// -update regenerates the golden snapshots instead of comparing.
var update = flag.Bool("update", false, "rewrite backend snapshot goldens")

// TestSnapshots locks down the IR dump of every kernel of every paper
// benchmark, byte for byte. A diff here means the dump format changed:
// if intentional, regenerate with
// `go test ./internal/clc/backend/ -run Snapshots -update` and review
// the golden diff like any other code change.
func TestSnapshots(t *testing.T) {
	for _, name := range bench.Names() {
		b := bench.ByName(name)
		prog, err := clc.Compile(name+".cl", b.Source(), bench.F32.BuildOptions())
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		for _, kname := range prog.KernelNames() {
			k := prog.Kernel(kname)
			t.Run(name+"/"+kname+"/irdump", func(t *testing.T) {
				out, err := backend.IRDump(k)
				if err != nil {
					t.Fatalf("IRDump: %v", err)
				}
				again, err := backend.IRDump(k)
				if err != nil {
					t.Fatalf("second IRDump: %v", err)
				}
				if !bytes.Equal(out, again) {
					t.Fatal("dump is not deterministic")
				}
				golden := filepath.Join("testdata", name, kname+".ir.golden")
				if *update {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, out, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if !bytes.Equal(out, want) {
					t.Errorf("IR dump of %s/%s differs from golden %s (len %d vs %d); run with -update if intended",
						name, kname, golden, len(out), len(want))
				}
			})
		}
	}
}

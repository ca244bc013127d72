package tune

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"maligo/internal/bench"
)

var update = flag.Bool("update", false, "rewrite the autotuner report goldens")

// TestReportGolden pins the JSON report (malitune -json) of a
// nominal-point search over the whole fleet for every benchmark at
// both precisions, byte for byte.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 fleet searches")
	}
	for _, name := range bench.Names() {
		for _, prec := range []bench.Precision{bench.F32, bench.F64} {
			rep, err := Run(Space{Bench: name, Precision: prec, Scale: 0.05, NoDVFS: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, prec, err)
			}
			got := mustJSON(t, rep)
			path := filepath.Join("testdata", "golden", name+"-"+prec.String()+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/tune -run Golden -update`)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s/%s: report drifted from %s:\n%s", name, prec, path, got)
			}
		}
	}
}

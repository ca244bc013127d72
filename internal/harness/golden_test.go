package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the harness output goldens")

// checkGolden compares got against testdata/name byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run Golden -update`)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}

// TestFiguresCSVGolden pins every figure value of the small sweep
// (scale 0.08, both precisions, all nine benchmarks): any change to
// the measured-region protocol or to the power accounting shows up
// as a diff here.
func TestFiguresCSVGolden(t *testing.T) {
	checkGolden(t, "figures_small.csv", smallRun(t).CSV())
}

// TestAblationsGolden pins the rendered §III-A/§III-B ablations and
// the auto-optimization leg.
func TestAblationsGolden(t *testing.T) {
	hm, err := RunHostMemAblation(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := RunLayoutAblation(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	ao, err := RunAutoOptAblation(0.08)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablations.txt", RenderAblations(hm, lo)+ao.Render())
}

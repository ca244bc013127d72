package job

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the job result golden")

// TestMixResultsGolden pins the JSON result of every mix job run
// through RunCompiled — the body malid serves — byte for byte.
func TestMixResultsGolden(t *testing.T) {
	r := NewRuntime(Config{Workers: 2})
	defer r.Close()
	var results []*Result
	for _, spec := range MixSpecs() {
		art, err := Compile(spec.Source, spec.Options)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kernel, err)
		}
		res, err := r.RunCompiled(spec, art.Prog)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kernel, err)
		}
		results = append(results, res)
	}
	got, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "mix_results.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/job -run Golden -update`)", err)
	}
	if string(got) != string(want) {
		t.Errorf("mix results drifted from %s", path)
	}
}

package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// internalPackages lists the module's internal packages: directories
// under ../internal holding a non-test .go file.
func internalPackages(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(filepath.Join("..", "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel("..", filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for p := range seen {
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func TestEveryInternalPackageHasOneLayer(t *testing.T) {
	pkgs := internalPackages(t)
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages")
	}
	onDisk := map[string]bool{}
	for _, p := range pkgs {
		onDisk[p] = true
		if _, ok := packageLayers[p]; !ok {
			t.Errorf("package maligo/%s has no layer in packageLayers", p)
		}
	}
	for p := range packageLayers {
		if p != "" && !onDisk[p] {
			t.Errorf("packageLayers names %s, which is not a package of the module", p)
		}
	}
	reported := map[string]bool{}
	for _, l := range reportedLayers {
		reported[l] = true
	}
	for p, l := range packageLayers {
		if !reported[l] && l != layerTools {
			t.Errorf("package %q maps to layer %q, which the traced run does not report", p, l)
		}
	}
	for _, r := range funcLayers {
		if _, ok := packageLayers[r.pkg]; !ok || !reported[r.layer] {
			t.Errorf("function rule %+v names an unknown package or layer", r)
		}
	}
}

func TestLayerOfUsesInnermostModuleFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"maligo/internal/vm.(*Trace).OnAccess", "maligo/internal/vm.(*VM).runPure", "maligo/internal/harness.Run"}, "vm.trace"},
		{[]string{"runtime.mallocgc", "maligo/internal/vm.(*VM).runPure.func3", "maligo/internal/cl.(*CommandQueue).run"}, "vm"},
		{[]string{"maligo/internal/clc/analysis/dataflow.Solve", "maligo/internal/clc/opt.Optimize"}, "analysis"},
		{[]string{"maligo/internal/clc/opt.vectorize", "maligo/internal/service.(*Server).Submit"}, "opt"},
		{[]string{"encoding/json.Marshal", "maligo.(*Client).post", "main.(*serveWorkload).ready"}, "api"},
		{[]string{"encoding/json.Marshal", "main.(*serveWorkload).request"}, "client"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net/http.(*conn).serve"}, "http"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"maligo/cmd/figures.main"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestAttributeTracesSumsStacksByLayer(t *testing.T) {
	text := `File: repobench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      60ms   maligo/internal/vm.(*VM).runPure
             maligo/internal/harness.Run
-----------+-------------------------------------------------------
      30ms   maligo/internal/vm.(*Trace).Replay
             maligo/internal/cl.(*CommandQueue).run
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             maligo/internal/clc/ir.newValue (inline)
             maligo/internal/clc/analysis.(*Analyzer).visit
-----------+-------------------------------------------------------
      15ms   maligo/internal/clc/opt.cloneKernel (inline)
             maligo/internal/clc/analysis/dataflow.Solve
-----------+-------------------------------------------------------
`
	byLayer, total := attributeTraces([]byte(text))
	if total.Milliseconds() != 135 {
		t.Fatalf("total = %v, want 135ms", total)
	}
	for layer, want := range map[string]int64{"vm": 60, "vm.trace": 30, "gc": 10, "clc": 20, "opt": 15, "analysis": 0} {
		if got := byLayer[layer].Milliseconds(); got != want {
			t.Errorf("%s = %dms, want %dms", layer, got, want)
		}
	}
}

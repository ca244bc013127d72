package maligo_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"testing"

	"maligo"
)

// setEngine selects the VM engine through MALIGO_ENGINE for the rest
// of the test; "" unsets the variable, which runs the default engine.
func setEngine(t *testing.T, name string) {
	t.Setenv("MALIGO_ENGINE", name)
	if name == "" {
		os.Unsetenv("MALIGO_ENGINE")
	}
}

// TestEngineFromEnvStrict checks the startup-time MALIGO_ENGINE
// validation every command runs: valid values parse, invalid values are
// a typed startup error while the lenient reader still degrades to
// auto for run-time callers.
func TestEngineFromEnvStrict(t *testing.T) {
	t.Setenv("MALIGO_ENGINE", "interp")
	if got, err := maligo.EngineFromEnvStrict(); err != nil || got != maligo.EngineInterp {
		t.Fatalf("strict(interp) = %v, %v", got, err)
	}

	for _, bad := range []string{"warp", "lanes"} {
		t.Setenv("MALIGO_ENGINE", bad)
		if _, err := maligo.EngineFromEnvStrict(); !errors.Is(err, maligo.ErrUnknownEngine) {
			t.Fatalf("strict(%s) err = %v, want ErrUnknownEngine", bad, err)
		}
		if got := maligo.EngineFromEnv(); got != maligo.EngineAuto {
			t.Fatalf("lenient(%s) = %v, want EngineAuto", bad, got)
		}
	}

	t.Setenv("MALIGO_ENGINE", "")
	if got, err := maligo.EngineFromEnvStrict(); err != nil || got != maligo.EngineAuto {
		t.Fatalf("strict(unset) = %v, %v", got, err)
	}
}

// TestWithEngineEndToEnd drives the façade on the interpreter oracle
// (MALIGO_ENGINE=interp) and on the default engine and requires
// bit-identical output and measurement — the root-package leg of the
// engine differential contract.
func TestWithEngineEndToEnd(t *testing.T) {
	run := func(eng string) ([]byte, maligo.Measurement) {
		setEngine(t, eng)
		const n = 1 << 10
		p := maligo.NewPlatform(maligo.WithWorkers(1))
		defer p.Close()
		ctx := p.Context
		prog := ctx.CreateProgramWithSource(saxpySrc)
		if err := prog.Build(""); err != nil {
			t.Fatalf("build: %v\n%s", err, prog.BuildLog())
		}
		kernel, err := prog.CreateKernel("saxpy")
		if err != nil {
			t.Fatal(err)
		}
		host := make([]byte, n*4)
		for i := range host {
			host[i] = byte(i * 7)
		}
		bufX, err := ctx.CreateBuffer(maligo.MemReadOnly|maligo.MemCopyHostPtr, n*4, host)
		if err != nil {
			t.Fatal(err)
		}
		bufY, err := ctx.CreateBuffer(maligo.MemReadWrite|maligo.MemCopyHostPtr, n*4, host)
		if err != nil {
			t.Fatal(err)
		}
		kernel.SetArgBuffer(0, bufX)
		kernel.SetArgBuffer(1, bufY)
		kernel.SetArgFloat(2, 1.5)
		kernel.SetArgInt(3, n)
		q := ctx.CreateCommandQueue(p.Mali())
		if _, err := q.EnqueueNDRangeKernel(kernel, 1, []int{n}, []int{64}); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		q.Finish()
		meas, _ := p.Measure(q)
		out := make([]byte, n*4)
		if _, err := q.EnqueueReadBuffer(bufY, 0, out); err != nil {
			t.Fatal(err)
		}
		return out, meas
	}

	refOut, refMeas := run("interp")
	out, meas := run("")
	for i := range refOut {
		if out[i] != refOut[i] {
			t.Fatalf("output differs from interp at byte %d", i)
		}
	}
	if meas != refMeas {
		t.Errorf("measurement differs:\n interp:  %+v\n default: %+v", refMeas, meas)
	}
}

// TestExperimentsEngineIdentity is the malisim leg: RunExperiments —
// the exact path malisim drives — must produce identical simulated
// cells on the interpreter and the default engine (only HostSeconds,
// the host wall-clock, may move).
func TestExperimentsEngineIdentity(t *testing.T) {
	run := func(eng string) *maligo.Results {
		setEngine(t, eng)
		cfg := maligo.DefaultExperimentConfig()
		cfg.Scale = 0.1
		cfg.Benchmarks = []string{"2dcon"}
		cfg.Precisions = []maligo.Precision{maligo.F32}
		cfg.Workers = 1
		res, err := maligo.RunExperiments(cfg)
		if err != nil {
			t.Fatalf("RunExperiments(MALIGO_ENGINE=%q): %v", eng, err)
		}
		return res
	}
	ref := run("interp")
	res := run("")
	for key, rc := range ref.Cells {
		gc := res.Cells[key]
		if gc == nil || rc.Supported != gc.Supported {
			t.Fatalf("%s: cell mismatch", key)
		}
		if !rc.Supported {
			continue
		}
		if rc.Seconds != gc.Seconds || rc.Power != gc.Power || rc.Activity != gc.Activity {
			t.Errorf("%s: simulated results differ from interp", key)
		}
	}
}

// TestServerEngineIdentity is the malid leg: a daemon started on the
// interpreter (MALIGO_ENGINE=interp) or on the default engine must
// serve byte-identical job results.
func TestServerEngineIdentity(t *testing.T) {
	run := func(eng string) []byte {
		setEngine(t, eng)
		cfg := maligo.ServerConfig{}
		cfg.Runtime.Workers = 1
		srv, err := maligo.NewServer(cfg)
		if err != nil {
			t.Fatalf("NewServer(MALIGO_ENGINE=%q): %v", eng, err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		client := maligo.NewClient(ts.URL, ts.Client())

		spec := maligo.JobMixSpecs()[0]
		res, err := client.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatalf("RunJob(MALIGO_ENGINE=%q): %v", eng, err)
		}
		b, _ := json.Marshal(res)
		return b
	}
	ref := run("interp")
	if got := run(""); string(got) != string(ref) {
		t.Errorf("served job result differs from interp:\n interp:  %s\n default: %s", ref, got)
	}
}

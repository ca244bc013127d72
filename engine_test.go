package maligo_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"maligo"
)

// TestParseEngineTable pins the engine-name grammar shared by the
// malisim/malid -engine flags and the MALIGO_ENGINE variable: every
// accepted spelling, and the typed ErrUnknownEngine for everything
// else — never a silent fall-back.
func TestParseEngineTable(t *testing.T) {
	cases := []struct {
		in   string
		want maligo.Engine
		ok   bool
	}{
		{"", maligo.EngineAuto, true},
		{"auto", maligo.EngineAuto, true},
		{"interp", maligo.EngineInterp, true},
		{"interpreter", maligo.EngineInterp, true},
		{"compiled", maligo.EngineCompiled, true},
		{" compiled ", maligo.EngineCompiled, true},
		{"lanes", 0, false},
		{"lane", 0, false},
		{"simt", 0, false},
		{"LANES", 0, false},
		{"fast", 0, false},
		{"interp2", 0, false},
		{"lanes,compiled", 0, false},
		{"gpu", 0, false},
	}
	for _, c := range cases {
		got, err := maligo.ParseEngine(c.in)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseEngine(%q) = %v, %v; want %v, nil", c.in, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseEngine(%q) accepted an invalid name as %v", c.in, got)
			continue
		}
		if !errors.Is(err, maligo.ErrUnknownEngine) {
			t.Errorf("ParseEngine(%q) error %v is not ErrUnknownEngine", c.in, err)
		}
	}
}

// TestEngineFromEnvStrict checks the startup-time MALIGO_ENGINE
// validation both daemons run: valid values parse, invalid values are
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

// TestWithEngineEndToEnd drives the façade with both engines and
// requires bit-identical output and measurement — the root-package leg
// of the engine differential contract.
func TestWithEngineEndToEnd(t *testing.T) {
	run := func(eng maligo.Engine) ([]byte, maligo.Measurement) {
		const n = 1 << 10
		p := maligo.NewPlatform(maligo.WithWorkers(1), maligo.WithEngine(eng))
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

	refOut, refMeas := run(maligo.EngineInterp)
	out, meas := run(maligo.EngineCompiled)
	for i := range refOut {
		if out[i] != refOut[i] {
			t.Fatalf("output differs from interp at byte %d", i)
		}
	}
	if meas != refMeas {
		t.Errorf("measurement differs:\n interp:   %+v\n compiled: %+v", refMeas, meas)
	}
}

// TestExperimentsEngineIdentity is the malisim leg: RunExperiments —
// the exact path malisim drives after its -engine flag parses — must
// produce identical simulated cells under both engines (only
// HostSeconds, the host wall-clock, may move).
func TestExperimentsEngineIdentity(t *testing.T) {
	run := func(eng maligo.Engine) *maligo.Results {
		cfg := maligo.DefaultExperimentConfig()
		cfg.Scale = 0.1
		cfg.Benchmarks = []string{"2dcon"}
		cfg.Precisions = []maligo.Precision{maligo.F32}
		cfg.Workers = 1
		cfg.Engine = eng
		res, err := maligo.RunExperiments(cfg)
		if err != nil {
			t.Fatalf("RunExperiments(%v): %v", eng, err)
		}
		return res
	}
	ref := run(maligo.EngineInterp)
	res := run(maligo.EngineCompiled)
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

// TestServerEngineIdentity is the malid leg: a daemon configured with
// either engine must serve byte-identical job results. (malid's -engine
// flag parses with ParseEngine and lands in ServerConfig.Runtime.Engine
// — this drives that exact path.)
func TestServerEngineIdentity(t *testing.T) {
	run := func(eng maligo.Engine) []byte {
		cfg := maligo.ServerConfig{}
		cfg.Runtime.Workers = 1
		cfg.Runtime.Engine = eng
		srv, err := maligo.NewServer(cfg)
		if err != nil {
			t.Fatalf("NewServer(%v): %v", eng, err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		client := maligo.NewClient(ts.URL, ts.Client())

		spec := maligo.JobMixSpecs()[0]
		res, err := client.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatalf("RunJob(%v): %v", eng, err)
		}
		b, _ := json.Marshal(res)
		return b
	}
	ref := run(maligo.EngineInterp)
	if got := run(maligo.EngineCompiled); string(got) != string(ref) {
		t.Errorf("served job result differs from interp:\n interp:   %s\n compiled: %s", ref, got)
	}
}

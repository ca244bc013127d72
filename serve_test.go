package maligo_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"maligo"
)

// startDaemon stands up an embedded malid server behind httptest and
// returns a client for it.
func startDaemon(t *testing.T) *maligo.Client {
	t.Helper()
	srv, err := maligo.NewServer(maligo.ServerConfig{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return maligo.NewClient(ts.URL, ts.Client())
}

// TestClientMatchesInProcess runs every mix benchmark through the
// public Client and through RunJob and requires identical JSON — the
// transport-agnosticity contract of the serving layer.
func TestClientMatchesInProcess(t *testing.T) {
	client := startDaemon(t)
	runner := maligo.NewJobRunner(0)
	defer runner.Close()

	for _, spec := range maligo.JobMixSpecs() {
		local, err := runner.Run(spec)
		if err != nil {
			t.Fatalf("%s: in-process: %v", spec.Kernel, err)
		}
		served, err := client.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: over wire: %v", spec.Kernel, err)
		}
		lb, _ := json.Marshal(local)
		sb, _ := json.Marshal(served)
		if string(lb) != string(sb) {
			t.Fatalf("%s: served result differs from in-process:\nwire:  %s\nlocal: %s", spec.Kernel, sb, lb)
		}
	}
}

// TestClientProgramIDFlow registers a program once and submits by
// content address alone; the result must still report the program's
// id and the repeat must be a cache hit.
func TestClientProgramIDFlow(t *testing.T) {
	client := startDaemon(t)
	spec := maligo.JobMixSpecs()[0]

	info, err := client.RegisterProgram(context.Background(), spec.Source, spec.Options)
	if err != nil {
		t.Fatalf("RegisterProgram: %v", err)
	}
	if want := maligo.JobProgramID(spec.Source, spec.Options); info.ProgramID != want {
		t.Fatalf("program id %q, want %q", info.ProgramID, want)
	}

	byID := *spec
	byID.Source, byID.Options = "", ""
	byID.ProgramID = info.ProgramID
	res, hit, err := client.RunJobCached(context.Background(), &byID)
	if err != nil {
		t.Fatalf("RunJobCached: %v", err)
	}
	if !hit {
		t.Fatal("program_id submission missed the cache it was just registered into")
	}
	if res.ProgramID != info.ProgramID {
		t.Fatalf("result program id %q, want %q", res.ProgramID, info.ProgramID)
	}
}

// TestClientErrorMapping checks wire error envelopes come back as the
// same typed errors the in-process API returns.
func TestClientErrorMapping(t *testing.T) {
	client := startDaemon(t)
	ctx := context.Background()

	_, err := client.RunJob(ctx, &maligo.JobSpec{Kernel: "k"})
	if !errors.Is(err, maligo.ErrInvalidJob) {
		t.Fatalf("invalid spec: %v, want ErrInvalidJob", err)
	}

	_, err = client.RunJob(ctx, &maligo.JobSpec{
		Source: "__kernel void k(int x{}", Kernel: "k",
		Device: maligo.JobDeviceGPU, Global: []int{1},
	})
	if !errors.Is(err, maligo.ErrBuildFailure) {
		t.Fatalf("broken program: %v, want ErrBuildFailure", err)
	}

	_, err = client.GetJob(ctx, "j-ffffffff")
	if !errors.Is(err, maligo.ErrUnknownJob) {
		t.Fatalf("unknown job: %v, want ErrUnknownJob", err)
	}
}

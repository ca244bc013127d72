package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"maligo/internal/job"
	"maligo/internal/sched"
)

// newTestServer stands up a server plus its httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return res
}

func readAll(t *testing.T, res *http.Response) []byte {
	t.Helper()
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return buf.Bytes()
}

// vecopSpec returns the mix's vecop job (c = a + b, n = 1024).
func vecopSpec(t *testing.T) *job.Spec {
	t.Helper()
	for _, s := range job.MixSpecs() {
		if s.Kernel == "vecop_cl" {
			return s
		}
	}
	t.Fatal("vecop_cl not in mix")
	return nil
}

// TestProgramsEndpointGolden checks the /v1/programs round trip
// field by field: content address, cache disposition, kernel list.
func TestProgramsEndpointGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := vecopSpec(t)
	req, _ := json.Marshal(map[string]string{"source": spec.Source, "options": spec.Options})

	for round, wantCached := range []bool{false, true} {
		res := postJSON(t, ts.URL+"/v1/programs", string(req))
		body := readAll(t, res)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, res.StatusCode, body)
		}
		var got struct {
			ProgramID string   `json:"program_id"`
			Cached    bool     `json:"cached"`
			Kernels   []string `json:"kernels"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if want := job.ProgramID(spec.Source, spec.Options); got.ProgramID != want {
			t.Fatalf("round %d: program_id %q, want %q", round, got.ProgramID, want)
		}
		if got.Cached != wantCached {
			t.Fatalf("round %d: cached %v, want %v", round, got.Cached, wantCached)
		}
		if !sort.StringsAreSorted(got.Kernels) {
			t.Fatalf("round %d: kernels %v not sorted", round, got.Kernels)
		}
		found := false
		for _, k := range got.Kernels {
			found = found || k == "vecop_cl"
		}
		if !found {
			t.Fatalf("round %d: kernels %v missing vecop_cl", round, got.Kernels)
		}
	}
}

// TestSubmitServesInProcessBytes is the core conformance property:
// the synchronous /v1/jobs body is byte-identical to running the same
// spec through an in-process job.Runtime, for every benchmark in the
// mix, and the cache disposition rides only in the header.
func TestSubmitServesInProcessBytes(t *testing.T) {
	rt := job.NewRuntime(job.Config{})
	defer rt.Close()
	_, ts := newTestServer(t, Config{})

	for _, spec := range job.MixSpecs() {
		res, err := rt.Run(spec)
		if err != nil {
			t.Fatalf("%s: in-process: %v", spec.Kernel, err)
		}
		want, _ := json.Marshal(res)
		want = append(want, '\n')

		body, _ := json.Marshal(spec)
		for round := 0; round < 2; round++ {
			hr := postJSON(t, ts.URL+"/v1/jobs", string(body))
			got := readAll(t, hr)
			if hr.StatusCode != http.StatusOK {
				t.Fatalf("%s round %d: status %d: %s", spec.Kernel, round, hr.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s round %d: served body differs from in-process result\nserved: %s\nlocal:  %s",
					spec.Kernel, round, got, want)
			}
			wantCache := "miss"
			if round > 0 {
				wantCache = "hit"
			}
			if c := hr.Header.Get("X-Malid-Cache"); c != wantCache {
				t.Fatalf("%s round %d: X-Malid-Cache %q, want %q", spec.Kernel, round, c, wantCache)
			}
		}
	}
}

// TestConcurrentTenantsBitIdentical fires every mix benchmark from
// several tenants at once, twice over, and requires every served body
// to match the in-process baseline byte for byte — admission order and
// context pooling must never leak into results. It also
// checks the repeat pass hits the program cache >90% of the time.
func TestConcurrentTenantsBitIdentical(t *testing.T) {
	rt := job.NewRuntime(job.Config{})
	specs := job.MixSpecs()
	want := make(map[string][]byte, len(specs))
	for _, s := range specs {
		res, err := rt.Run(s)
		if err != nil {
			t.Fatalf("%s: baseline: %v", s.Kernel, err)
		}
		b, _ := json.Marshal(res)
		want[s.Kernel] = append(b, '\n')
	}
	rt.Close()

	srv, ts := newTestServer(t, Config{MaxQueued: 256, MaxConcurrent: 8})
	const tenants = 3
	const rounds = 2
	var wg sync.WaitGroup
	var warmHits, warmMisses uint64
	errs := make(chan error, tenants*rounds*len(specs))
	for round := 0; round < rounds; round++ {
		if round == 1 {
			warmHits, warmMisses = srv.cache.Stats()
		}
		for tn := 0; tn < tenants; tn++ {
			for _, s := range specs {
				spec := *s
				spec.Tenant = fmt.Sprintf("tenant-%d", tn)
				wg.Add(1)
				go func(round int, spec job.Spec) {
					defer wg.Done()
					body, _ := json.Marshal(&spec)
					res, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					defer res.Body.Close()
					var buf bytes.Buffer
					buf.ReadFrom(res.Body)
					if res.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s: status %d: %s", spec.Kernel, res.StatusCode, buf.Bytes())
						return
					}
					if !bytes.Equal(buf.Bytes(), want[spec.Kernel]) {
						errs <- fmt.Errorf("round %d %s tenant %s: served body differs from in-process baseline",
							round, spec.Kernel, spec.Tenant)
					}
				}(round, spec)
			}
		}
		wg.Wait() // barrier so round 2 measures pure repeat traffic
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Round 1 pays one compile per distinct program; the repeat round
	// must be essentially all hits.
	hits, misses := srv.cache.Stats()
	rh, rm := hits-warmHits, misses-warmMisses
	rate := float64(rh) / float64(rh+rm)
	if rate < 0.9 {
		t.Fatalf("repeat-round cache hit rate %.3f (hits=%d misses=%d), want > 0.9", rate, rh, rm)
	}
}

// TestAsyncLifecycle follows one job through ?async=1, polling, and
// the trace endpoint.
func TestAsyncLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := vecopSpec(t)
	body, _ := json.Marshal(spec)

	res := postJSON(t, ts.URL+"/v1/jobs?async=1", string(body))
	ack := readAll(t, res)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", res.StatusCode, ack)
	}
	var sub struct {
		JobID  string `json:"job_id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(ack, &sub); err != nil || sub.JobID == "" {
		t.Fatalf("async ack %s: %v", ack, err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var rec struct {
		JobID  string      `json:"job_id"`
		Tenant string      `json:"tenant"`
		Status string      `json:"status"`
		Result *job.Result `json:"result"`
	}
	for {
		res, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		b := readAll(t, res)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", res.StatusCode, b)
		}
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("poll decode: %v", err)
		}
		if rec.Status == "done" || rec.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in status %q", rec.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec.Status != "done" || rec.Result == nil {
		t.Fatalf("job finished %q, result %v", rec.Status, rec.Result)
	}
	if rec.Tenant != "default" {
		t.Fatalf("tenant %q, want default (empty tenant maps to default)", rec.Tenant)
	}

	tr, err := http.Get(ts.URL + "/trace/" + sub.JobID)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	tb := readAll(t, tr)
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", tr.StatusCode, tb)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &trace); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestMalformedRequests is the error-envelope conformance table:
// every rejection carries the documented status and stable wire code.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := vecopSpec(t)
	okBody, _ := json.Marshal(spec)

	bad := *spec
	bad.Kernel = "no_such_kernel"
	badKernel, _ := json.Marshal(&bad)

	short := *spec
	short.Args = short.Args[:len(short.Args)-1]
	shortArgs, _ := json.Marshal(&short)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"not json", "POST", "/v1/jobs", "{nope", http.StatusBadRequest, "invalid_job"},
		{"unknown field", "POST", "/v1/jobs", `{"bogus": 1}`, http.StatusBadRequest, "invalid_job"},
		{"trailing data", "POST", "/v1/jobs", string(okBody) + "{}", http.StatusBadRequest, "invalid_job"},
		{"missing kernel", "POST", "/v1/jobs", `{"source": "__kernel void k(){}", "device": "gpu"}`, http.StatusBadRequest, "invalid_job"},
		{"bad device", "POST", "/v1/jobs", `{"source": "__kernel void k(){}", "kernel": "k", "device": "tpu", "global": [1]}`, http.StatusBadRequest, "invalid_job"},
		{"build failure", "POST", "/v1/jobs", `{"source": "__kernel void k(int x{}", "kernel": "k", "device": "gpu", "global": [1]}`, http.StatusUnprocessableEntity, "job_error"},
		{"unknown kernel", "POST", "/v1/jobs", string(badKernel), http.StatusUnprocessableEntity, "job_error"},
		{"wrong arg count", "POST", "/v1/jobs", string(shortArgs), http.StatusBadRequest, "invalid_job"},
		{"uncached program_id", "POST", "/v1/jobs", `{"program_id": "sha256:0000", "kernel": "k", "device": "gpu", "global": [1]}`, http.StatusBadRequest, "invalid_job"},
		{"programs missing source", "POST", "/v1/programs", `{}`, http.StatusBadRequest, "invalid_job"},
		{"unknown job", "GET", "/v1/jobs/j-ffffffff", "", http.StatusNotFound, "unknown_job"},
		{"unknown trace", "GET", "/trace/j-ffffffff", "", http.StatusNotFound, "unknown_job"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var res *http.Response
			var err error
			if tc.method == "GET" {
				res, err = http.Get(ts.URL + tc.path)
			} else {
				res, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatalf("%v", err)
			}
			body := readAll(t, res)
			if res.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", res.StatusCode, tc.status, body)
			}
			var env struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("error envelope not JSON: %s", body)
			}
			if env.Code != tc.code {
				t.Fatalf("code %q, want %q (error %q)", env.Code, tc.code, env.Error)
			}
			if env.Error == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// slowKernel takes long enough that queued jobs stay in flight while
// the quota test submits more.
const slowKernel = `
__kernel void slow(__global float* x, const uint iters) {
    size_t i = get_global_id(0);
    float v = x[i];
    for (uint it = 0u; it < iters; it++) {
        v = v * 1.0000001f + 0.5f;
    }
    x[i] = v;
}
`

// TestTenantQuota fills one tenant's admission queue with slow jobs
// and checks the next submission is rejected 429 while a different
// tenant still admits.
func TestTenantQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxQueued: 2, MaxConcurrent: 1})
	spec := &job.Spec{
		Tenant: "greedy",
		Source: slowKernel,
		Kernel: "slow",
		Device: job.DeviceGPU,
		Global: []int{4096},
		Args: []job.Arg{
			{Kind: job.ArgBuffer, Size: 4 * 4096},
			{Kind: job.ArgInt, Int: 2000},
		},
	}
	body, _ := json.Marshal(spec)

	for i := 0; i < 2; i++ {
		res := postJSON(t, ts.URL+"/v1/jobs?async=1", string(body))
		b := readAll(t, res)
		if res.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: status %d: %s", i, res.StatusCode, b)
		}
	}
	res := postJSON(t, ts.URL+"/v1/jobs?async=1", string(body))
	b := readAll(t, res)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: status %d, want 429: %s", res.StatusCode, b)
	}
	var env struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(b, &env); env.Code != "tenant_quota" {
		t.Fatalf("code %q, want tenant_quota", env.Code)
	}

	other := *spec
	other.Tenant = "patient"
	ob, _ := json.Marshal(&other)
	res = postJSON(t, ts.URL+"/v1/jobs?async=1", string(ob))
	b = readAll(t, res)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: status %d, want 202: %s", res.StatusCode, b)
	}
}

// TestMetricsEndpoint checks the text exposition carries the service
// counters after traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := vecopSpec(t)
	body, _ := json.Marshal(spec)
	readAll(t, postJSON(t, ts.URL+"/v1/jobs", string(body)))

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	text := string(readAll(t, res))
	for _, want := range []string{"malid.jobs.submitted", "malid.jobs.done", "malid.cache.entries"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHistoryBound checks finished jobs age out of the registry and
// then 404.
func TestHistoryBound(t *testing.T) {
	s, err := New(Config{History: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	spec := vecopSpec(t)
	var ids []string
	for i := 0; i < 3; i++ {
		sp := *spec
		rec, err := s.SubmitWait(&sp)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rec.Status != "done" {
			t.Fatalf("job %d: status %s (%s)", i, rec.Status, rec.Error)
		}
		ids = append(ids, rec.ID)
	}
	if _, err := s.Lookup(ids[0]); err == nil {
		t.Fatalf("oldest job %s still in registry, want aged out", ids[0])
	}
	for _, id := range ids[1:] {
		if _, err := s.Lookup(id); err != nil {
			t.Fatalf("job %s: %v, want retained", id, err)
		}
	}
}

// slowSpec is a slowKernel job for tenant that runs for iters
// iterations per work item.
func slowSpec(tenant string, iters int64) *job.Spec {
	return &job.Spec{
		Tenant: tenant,
		Source: slowKernel,
		Kernel: "slow",
		Device: job.DeviceGPU,
		Global: []int{4096},
		Args: []job.Arg{
			{Kind: job.ArgBuffer, Size: 4 * 4096},
			{Kind: job.ArgInt, Int: iters},
		},
	}
}

// TestIdleTenantsReleased checks a tenant costs nothing once its jobs
// are done: after one job under each of many distinct tenant names,
// no tenant record and no per-tenant goroutine is left behind.
func TestIdleTenantsReleased(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	spec := vecopSpec(t)
	submit := func(tenant string) {
		t.Helper()
		sp := *spec
		sp.Tenant = tenant
		rec, err := s.SubmitWait(&sp)
		if err != nil {
			t.Fatalf("%s: %v", tenant, err)
		}
		if rec.Status != "done" {
			t.Fatalf("%s: status %s (%s)", tenant, rec.Status, rec.Error)
		}
	}
	// A warm-up job builds the pooled context the rest reuse, so the
	// baseline counts its goroutines too.
	submit("warm-up")
	// settled polls until the goroutine count stops changing (or drops
	// to max) and returns it.
	settled := func(max int) int {
		n := runtime.NumGoroutine()
		for still, deadline := 0, time.Now().Add(5*time.Second); n > max && still < 10 && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				still++
			} else {
				still = 0
			}
			n = m
		}
		return n
	}
	base := settled(0)

	const tenants = 32
	for i := 0; i < tenants; i++ {
		submit(fmt.Sprintf("tenant-%d", i))
	}
	s.mu.Lock()
	left := len(s.tenants)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("%d tenant records left after every job finished, want 0", left)
	}
	if n := settled(base); n > base {
		t.Errorf("%d goroutines after %d idle tenants, baseline %d", n, tenants, base)
	}
}

// TestCloseUnderLoad closes a server while one tenant's first job runs
// and three more wait behind it: the running job completes, the
// waiting ones fail with the shutdown error, Close returns only after
// all four are resolved, and later submissions are refused.
func TestCloseUnderLoad(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	var recs []*jobRec
	for i := 0; i < 4; i++ {
		rec, err := s.Submit(slowSpec("busy", 4000))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		recs = append(recs, rec)
	}
	status := func(rec *jobRec) string {
		s.mu.Lock()
		defer s.mu.Unlock()
		return rec.Status
	}
	for deadline := time.Now().Add(10 * time.Second); status(recs[0]) != "running"; {
		if time.Now().After(deadline) {
			t.Fatalf("job 1 never started (status %s)", status(recs[0]))
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()

	for i, rec := range recs {
		select {
		case <-rec.doneCh:
		default:
			t.Fatalf("job %d unresolved after Close returned", i+1)
		}
	}
	if recs[0].Status != "done" {
		t.Errorf("running job finished %s (%s), want done", recs[0].Status, recs[0].Error)
	}
	for i, rec := range recs[1:] {
		if rec.Status != "failed" || !errors.Is(rec.err, sched.ErrClosed) {
			t.Errorf("waiting job %d: status %s, err %v, want failed with sched.ErrClosed", i+2, rec.Status, rec.err)
		}
	}
	if _, err := s.Submit(slowSpec("busy", 1)); !errors.Is(err, sched.ErrClosed) {
		t.Errorf("submit after Close = %v, want sched.ErrClosed", err)
	}
}

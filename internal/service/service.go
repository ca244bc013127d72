// Package service implements malid, the multi-tenant simulation
// daemon: a stdlib-only net/http server exposing a versioned JSON API
// over the job layer. Every admitted job takes one path: it waits for
// its tenant's previous job (so a tenant's jobs run one at a time, in
// submission order, under a quota), takes one of MaxConcurrent global
// slots, runs through job.Runtime.RunCompiled and finishes. All
// tenants share one device worker pool and one content-addressed
// compiled-program cache. Served reports are byte-identical to
// in-process job.Runtime runs — the server adds routing, caching and
// admission control, never timing.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"maligo/internal/clc/analysis"
	"maligo/internal/clc/ir"
	"maligo/internal/job"
	"maligo/internal/obs"
	"maligo/internal/platform"
	"maligo/internal/sched"
	"maligo/internal/service/progcache"
)

// Typed errors of the service layer.
var (
	// ErrTenantQuota rejects a submission when the tenant already has
	// MaxQueued jobs admitted and unfinished (HTTP 429).
	ErrTenantQuota = errors.New("malid: tenant admission quota exceeded")
	// ErrUnknownJob rejects a lookup of a job id that was never
	// assigned or has aged out of the bounded history (HTTP 404).
	ErrUnknownJob = errors.New("malid: unknown job id")
	// ErrAnalysisFailed rejects a program carrying error-severity
	// static-analysis findings under the "error" admission policy
	// (HTTP 422, code "analysis_failed").
	ErrAnalysisFailed = errors.New("malid: program rejected by static analysis")
)

// Analysis admission policies.
const (
	// AnalysisOff disables analysis reporting and gating.
	AnalysisOff = "off"
	// AnalysisWarn (the default) returns diagnostics with program
	// registrations but never rejects.
	AnalysisWarn = "warn"
	// AnalysisError additionally rejects programs with error-severity
	// findings before any job runs.
	AnalysisError = "error"
)

// parsePolicy validates an analysis policy name ("" means default).
func parsePolicy(p string) (string, error) {
	switch p {
	case "":
		return AnalysisWarn, nil
	case AnalysisOff, AnalysisWarn, AnalysisError:
		return p, nil
	}
	return "", fmt.Errorf("malid: unknown analysis policy %q (want off, warn or error)", p)
}

// Config sizes a Server.
type Config struct {
	// Runtime configures the shared execution runtime.
	Runtime job.Config
	// MaxQueued is the per-tenant admission quota: jobs admitted and
	// not yet finished (default 64).
	MaxQueued int
	// MaxConcurrent bounds jobs executing simultaneously across all
	// tenants (default 4) — the simulated board fleet size.
	MaxConcurrent int
	// History bounds retained finished jobs (default 1024).
	History int
	// CacheEntries / CacheDir configure the compiled-program cache.
	CacheEntries int
	CacheDir     string
	// Analysis is the daemon-wide admission policy for static-analysis
	// findings: AnalysisOff, AnalysisWarn (default) or AnalysisError.
	Analysis string
	// TenantAnalysis overrides the policy per tenant name.
	TenantAnalysis map[string]string
	// Optimize runs the §V transform pipeline (internal/clc/opt) on
	// every admitted program: jobs execute the optimized IR, cached
	// under its own content address beside the plain compile. The
	// analysis gate still judges the program as written.
	Optimize bool
	// Device names the board model the daemon simulates (default the
	// Exynos 5250). An unknown name fails New with an error wrapping
	// platform.ErrUnknownDevice — a misconfigured daemon must not come
	// up silently simulating the wrong board. Ignored when Runtime.SoC
	// is already set.
	Device string
}

// Server is the malid service. Create with New, mount via Handler.
type Server struct {
	cfg     Config
	runtime *job.Runtime
	cache   *progcache.Cache
	metrics *obs.Registry
	slots   chan struct{}  // global execution slots
	closing chan struct{}  // closed by Close: jobs not yet running fail
	live    sync.WaitGroup // one count per admitted, unresolved job

	mu      sync.Mutex
	tenants map[string]*tenant // tenants with jobs in flight
	jobs    map[string]*jobRec
	done    []string // finished job ids, oldest first (history bound)
	seq     uint64
	closed  bool
}

// tenant is one admission queue: a FIFO chain in which each job waits
// for the previous one's doneCh. The record exists only while the
// tenant has jobs in flight.
type tenant struct {
	inFlight int           // admitted, not yet finished
	last     chan struct{} // doneCh of the most recently admitted job
}

// jobRec is one job's registry entry.
type jobRec struct {
	ID     string      `json:"job_id"`
	Tenant string      `json:"tenant"`
	Status string      `json:"status"` // "queued" | "running" | "done" | "failed"
	Error  string      `json:"error,omitempty"`
	Result *job.Result `json:"result,omitempty"`

	err       error // typed failure behind Error, for the wire code
	cacheHit  bool
	optPasses []string // transform passes applied (optimizing daemons)
	doneCh    chan struct{}
}

// New assembles a server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 64
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.History <= 0 {
		cfg.History = 1024
	}
	var err error
	if cfg.Analysis, err = parsePolicy(cfg.Analysis); err != nil {
		return nil, err
	}
	tenantNames := make([]string, 0, len(cfg.TenantAnalysis))
	for tenant := range cfg.TenantAnalysis { // maligo:allow maporder sorted on the next line
		tenantNames = append(tenantNames, tenant)
	}
	sort.Strings(tenantNames)
	for _, tenant := range tenantNames {
		if _, err := parsePolicy(cfg.TenantAnalysis[tenant]); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", tenant, err)
		}
	}
	if cfg.Runtime.SoC == nil {
		soc, err := platform.Lookup(cfg.Device)
		if err != nil {
			return nil, err
		}
		cfg.Runtime.SoC = soc
	}
	cache, err := progcache.New(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		runtime: job.NewRuntime(cfg.Runtime),
		cache:   cache,
		metrics: obs.NewRegistry(),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		closing: make(chan struct{}),
		tenants: make(map[string]*tenant),
		jobs:    make(map[string]*jobRec),
	}
	s.metrics.GaugeFunc("malid.cache.entries", func() float64 { return float64(s.cache.Len()) })
	s.metrics.GaugeFunc("malid.cache.hit_rate", func() float64 {
		h, m := s.cache.Stats()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	return s, nil
}

// Close shuts the server down: running jobs complete, every admitted
// job that has not started fails with sched.ErrClosed, later
// submissions are refused with it, and Close returns once every
// admitted job is resolved. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		close(s.closing)
	}
	s.mu.Unlock()
	s.live.Wait()
	if first {
		s.runtime.Close()
	}
}

// Device returns the board model the daemon simulates (set by the
// Device config name or Runtime.SoC; the default Exynos 5250).
func (s *Server) Device() *platform.SoC { return s.cfg.Runtime.SoC }

// Metrics exposes the service registry (the /metrics endpoint and
// tests read it).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// policyFor resolves the analysis admission policy for a tenant.
func (s *Server) policyFor(tenant string) string {
	if p, ok := s.cfg.TenantAnalysis[tenant]; ok && p != "" {
		return p
	}
	return s.cfg.Analysis
}

// admitProgram applies the analysis gate: under the "error" policy a
// program with error-severity findings is rejected before any job
// runs. The first error finding rides in the message so the client
// sees what was wrong without a second round trip.
func (s *Server) admitProgram(tenant string, e *progcache.Entry) error {
	if s.policyFor(tenant) != AnalysisError || e.MaxSeverity() < analysis.Error {
		return nil
	}
	s.metrics.Counter("malid.programs.rejected_analysis").Inc()
	for _, d := range e.Diags {
		if d.Sev == analysis.Error {
			return fmt.Errorf("%w: %s", ErrAnalysisFailed, d.String())
		}
	}
	return ErrAnalysisFailed
}

// compileProgram resolves (source, options) through the cache under
// the daemon's optimize setting. On an optimizing daemon the entry is
// the transform-pipeline output; its fresh compiles bump the
// programs.optimized counter when any pass applied.
func (s *Server) compileProgram(source, options string) (*progcache.Entry, bool, error) {
	if !s.cfg.Optimize {
		return s.cache.GetOrCompile(source, options)
	}
	e, hit, err := s.cache.GetOrCompileOptimized(source, options)
	if err != nil {
		return nil, false, err
	}
	if !hit && len(e.OptPasses) > 0 {
		s.metrics.Counter("malid.programs.optimized").Inc()
	}
	return e, hit, nil
}

// Submit admits one job for a tenant and returns its registry entry
// immediately; wait on rec.doneCh (or use SubmitWait) for the result.
// The compile (or cache lookup) happens synchronously so malformed
// programs fail fast with a build error; execution is scheduled.
func (s *Server) Submit(spec *job.Spec) (*jobRec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tenantName := spec.Tenant
	if tenantName == "" {
		tenantName = "default"
	}

	// Resolve the program first: content address when the source is
	// present, cache lookup when only program_id is given.
	var prog *ir.Program
	var hit bool
	var optPasses []string
	if spec.Source != "" {
		e, h, err := s.compileProgram(spec.Source, spec.Options)
		if err != nil {
			return nil, err
		}
		if err := s.admitProgram(tenantName, e); err != nil {
			return nil, err
		}
		prog, hit = e.Prog, h
		optPasses = e.OptPasses
		spec.ProgramID = e.ID
	} else {
		e, ok := s.cache.Get(spec.ProgramID)
		if !ok {
			return nil, fmt.Errorf("%w: program %s not cached and no source given",
				job.ErrInvalidJob, spec.ProgramID)
		}
		if err := s.admitProgram(tenantName, e); err != nil {
			return nil, err
		}
		prog, hit = e.Prog, true
		optPasses = e.OptPasses
		// The runtime stamps results from the source; restore it so a
		// program_id-only submission reports identically.
		spec.Source, spec.Options = e.Source, e.Options
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, sched.ErrClosed
	}
	t := s.tenants[tenantName]
	if t == nil {
		t = &tenant{}
		s.tenants[tenantName] = t
	}
	if t.inFlight >= s.cfg.MaxQueued {
		s.mu.Unlock()
		s.metrics.Counter("malid.jobs.rejected_quota").Inc()
		return nil, fmt.Errorf("tenant %q has %d jobs queued: %w", tenantName, t.inFlight, ErrTenantQuota)
	}
	t.inFlight++
	s.seq++
	rec := &jobRec{
		ID:        fmt.Sprintf("j-%08x", s.seq),
		Tenant:    tenantName,
		Status:    "queued",
		cacheHit:  hit,
		optPasses: optPasses,
		doneCh:    make(chan struct{}),
	}
	s.jobs[rec.ID] = rec
	prev := t.last
	t.last = rec.doneCh
	s.live.Add(1)
	s.mu.Unlock()
	s.metrics.Counter("malid.jobs.submitted").Inc()
	go s.run(rec, prev, spec, prog)
	return rec, nil
}

// run is an admitted job's one path: wait for the tenant's previous
// job (prev, nil for none), take a global slot, execute, finish. A job
// that has not started running when Close begins fails with
// sched.ErrClosed instead; waiting jobs never hold a slot.
func (s *Server) run(rec *jobRec, prev <-chan struct{}, spec *job.Spec, prog *ir.Program) {
	defer s.live.Done()
	if prev != nil {
		select {
		case <-prev:
		case <-s.closing:
		}
	}
	select {
	case s.slots <- struct{}{}:
	case <-s.closing:
		s.finish(rec, nil, sched.ErrClosed)
		return
	}
	defer func() { <-s.slots }()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.finish(rec, nil, sched.ErrClosed)
		return
	}
	rec.Status = "running"
	s.mu.Unlock()
	res, err := s.runtime.RunCompiled(spec, prog)
	s.finish(rec, res, err)
}

// finish resolves one job record, releases its tenant record when it
// was the tenant's last job in flight, and trims history.
func (s *Server) finish(rec *jobRec, res *job.Result, err error) {
	s.mu.Lock()
	if t := s.tenants[rec.Tenant]; t != nil {
		if t.inFlight--; t.inFlight == 0 {
			delete(s.tenants, rec.Tenant)
		}
	}
	if err != nil {
		rec.Status = "failed"
		rec.Error = err.Error()
		rec.err = err
		s.metrics.Counter("malid.jobs.failed").Inc()
	} else {
		rec.Status = "done"
		rec.Result = res
		s.metrics.Counter("malid.jobs.done").Inc()
	}
	s.done = append(s.done, rec.ID)
	for len(s.done) > s.cfg.History {
		delete(s.jobs, s.done[0])
		s.done = s.done[1:]
	}
	s.mu.Unlock()
	close(rec.doneCh)
}

// SubmitWait admits a job and blocks until it resolves.
func (s *Server) SubmitWait(spec *job.Spec) (*jobRec, error) {
	rec, err := s.Submit(spec)
	if err != nil {
		return nil, err
	}
	<-rec.doneCh
	return rec, nil
}

// Lookup returns a job record by id.
func (s *Server) Lookup(id string) (*jobRec, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%q: %w", id, ErrUnknownJob)
	}
	return rec, nil
}

// ---- HTTP layer ----

// Handler returns the versioned API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/programs", s.handlePrograms)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	return mux
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// errCode maps typed errors onto stable wire codes + HTTP statuses.
func errCode(err error) (int, string) {
	switch {
	case errors.Is(err, ErrAnalysisFailed):
		return http.StatusUnprocessableEntity, "analysis_failed"
	case errors.Is(err, ErrTenantQuota):
		return http.StatusTooManyRequests, "tenant_quota"
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound, "unknown_job"
	case errors.Is(err, job.ErrInvalidJob):
		return http.StatusBadRequest, "invalid_job"
	case errors.Is(err, sched.ErrClosed):
		return http.StatusServiceUnavailable, "shutting_down"
	default:
		// Build and argument errors are client mistakes.
		return http.StatusUnprocessableEntity, "job_error"
	}
}

func writeError(w http.ResponseWriter, err error) {
	status, code := errCode(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Code: code})
}

// setOptimizeHeader reports the transform disposition: absent on a
// non-optimizing daemon, "none" when the pipeline refused every pass,
// else the comma-joined applied pass names. Riding a header keeps the
// result body free of daemon-configuration fields: an optimized run
// differs from the plain run only where the simulation says it must
// (timing, power), never in shape.
func setOptimizeHeader(w http.ResponseWriter, enabled bool, passes []string) {
	if !enabled {
		return
	}
	if len(passes) == 0 {
		w.Header().Set("X-Malid-Optimize", "none")
		return
	}
	w.Header().Set("X-Malid-Optimize", strings.Join(passes, ","))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// decodeJSON strictly decodes one JSON document.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: malformed request body: %v", job.ErrInvalidJob, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", job.ErrInvalidJob)
	}
	return nil
}

// programReq / programResp are the /v1/programs wire types.
type programReq struct {
	Source  string `json:"source"`
	Options string `json:"options,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
}

type programResp struct {
	ProgramID   string                `json:"program_id"`
	Cached      bool                  `json:"cached"`
	Kernels     []string              `json:"kernels"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
}

// handlePrograms compiles (or looks up) a program and returns its
// content address plus the analyzer's structured diagnostics —
// clients then submit jobs by program_id alone. The response carries
// X-Malid-Analysis (the applied policy) and X-Malid-Severity (the
// highest finding severity); under the "error" policy a program with
// error-severity findings is rejected with code "analysis_failed".
func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	var req programReq
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Source == "" {
		writeError(w, fmt.Errorf("%w: source is required", job.ErrInvalidJob))
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	e, hit, err := s.compileProgram(req.Source, req.Options)
	if err != nil {
		writeError(w, err)
		return
	}
	policy := s.policyFor(tenant)
	w.Header().Set("X-Malid-Analysis", policy)
	setOptimizeHeader(w, s.cfg.Optimize, e.OptPasses)
	if policy != AnalysisOff {
		sev := "clean"
		if len(e.Diags) > 0 {
			sev = e.MaxSeverity().String()
		}
		w.Header().Set("X-Malid-Severity", sev)
	}
	if err := s.admitProgram(tenant, e); err != nil {
		writeError(w, err)
		return
	}
	kernels := e.Prog.KernelNames()
	sort.Strings(kernels)
	resp := programResp{ProgramID: e.ID, Cached: hit, Kernels: kernels}
	if policy != AnalysisOff {
		resp.Diagnostics = e.Diags
	}
	writeJSON(w, http.StatusOK, resp)
}

// submitResp is the async submission acknowledgement.
type submitResp struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
}

// handleSubmit admits a job. By default it waits and returns the bare
// job.Result (byte-identical to an in-process run); with ?async=1 it
// returns 202 and the job id for polling. The cache disposition rides
// in the X-Malid-Cache header so the body stays bit-comparable.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec job.Spec
	if err := decodeJSON(r, &spec); err != nil {
		writeError(w, err)
		return
	}
	async := r.URL.Query().Get("async") == "1"
	rec, err := s.Submit(&spec)
	if err != nil {
		writeError(w, err)
		return
	}
	if rec.cacheHit {
		w.Header().Set("X-Malid-Cache", "hit")
	} else {
		w.Header().Set("X-Malid-Cache", "miss")
	}
	w.Header().Set("X-Malid-Job", rec.ID)
	setOptimizeHeader(w, s.cfg.Optimize, rec.optPasses)
	if async {
		s.mu.Lock()
		status := rec.Status
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, submitResp{JobID: rec.ID, Status: status})
		return
	}
	<-rec.doneCh
	if rec.err != nil {
		writeError(w, rec.err)
		return
	}
	writeJSON(w, http.StatusOK, rec.Result)
}

// handleJob returns the full registry record of one job.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, rec)
}

// handleMetrics serves the registry in the text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.metrics.Snapshot().WriteText(w)
}

// handleTrace serves a finished job's command timeline as a Chrome
// trace (chrome://tracing, ui.perfetto.dev).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	res := rec.Result
	s.mu.Unlock()
	if res == nil {
		writeError(w, fmt.Errorf("job %s has no result (status %s): %w", rec.ID, rec.Status, ErrUnknownJob))
		return
	}
	spans := make([]obs.Span, 0, len(res.Events))
	track := strings.ToUpper(res.Device)
	for _, ev := range res.Events {
		spans = append(spans, obs.Span{
			Name:  ev.Name,
			Cat:   ev.Kind,
			Track: track,
			Start: ev.Started,
			Dur:   ev.Ended - ev.Started,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, spans)
}

// Command malid serves the maligo simulator as a multi-tenant job
// daemon: POST OpenCL C source, kernel arguments and an NDRange to
// /v1/jobs and get back the deterministic simulated report (timing,
// power, energy, optional buffer dumps). Programs are compiled once
// per content address and shared across tenants through an LRU binary
// cache, optionally persisted to disk. One daemon serves one board
// model from the device fleet (-device; the paper's Exynos 5250 by
// default, unknown names refuse startup).
//
//	malid -addr :8372 -cache-dir /var/cache/malid
//	malid -device exynos5422-big
//
//	curl -s localhost:8372/v1/jobs -d @job.json | jq .power.energy_j
//
// Endpoints: POST /v1/programs (register source, get its content
// address), POST /v1/jobs (run; ?async=1 to poll), GET /v1/jobs/{id},
// GET /metrics, GET /trace/{id} (Chrome trace of a finished job).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"maligo"
)

// parseTenantPolicies parses "tenant=policy,tenant=policy" overrides.
func parseTenantPolicies(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		name, policy, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || policy == "" {
			return nil, fmt.Errorf("malformed -tenant-analysis entry %q (want tenant=policy)", pair)
		}
		out[name] = policy
	}
	return out, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8372", "listen address")
		workers  = flag.Int("workers", 0, "engine worker pool size (0 = NumCPU)")
		arenaMB  = flag.Int64("arena-mb", 0, "per-context arena capacity in MiB (0 = default 512)")
		cacheDir = flag.String("cache-dir", "", "persist compiled programs under this directory")
		cacheN   = flag.Int("cache-entries", 128, "compiled-program LRU capacity")
		queued   = flag.Int("max-queued", 64, "per-tenant admission queue depth")
		conc     = flag.Int("max-concurrent", 4, "jobs running at once across all tenants")
		engine   = flag.String("engine", "", "VM engine: auto, interp, compiled")
		device   = flag.String("device", "", "board model the daemon simulates (default exynos5250); unknown names refuse startup")
		analysis = flag.String("analysis", "warn", "static-analysis admission policy: off, warn or error")
		tenantAn = flag.String("tenant-analysis", "", "per-tenant policy overrides, e.g. ci=error,scratch=off")
		optimize = flag.Bool("optimize", false, "run the transform pipeline on admitted programs (X-Malid-Optimize reports applied passes)")
	)
	flag.Parse()

	tenantPolicies, err := parseTenantPolicies(*tenantAn)
	if err != nil {
		log.Fatalf("malid: %v", err)
	}

	eng, err := maligo.ParseEngine(*engine)
	if err != nil {
		log.Fatalf("malid: %v", err)
	}
	if eng == maligo.EngineAuto {
		// A daemon with a mistyped MALIGO_ENGINE must refuse to start,
		// not silently serve every tenant on the default engine.
		if _, err := maligo.EngineFromEnvStrict(); err != nil {
			log.Fatalf("malid: MALIGO_ENGINE: %v", err)
		}
	}
	cfg := maligo.ServerConfig{
		MaxQueued:      *queued,
		MaxConcurrent:  *conc,
		CacheEntries:   *cacheN,
		CacheDir:       *cacheDir,
		Analysis:       *analysis,
		TenantAnalysis: tenantPolicies,
		Optimize:       *optimize,
		Device:         *device,
	}
	cfg.Runtime.Workers = *workers
	cfg.Runtime.ArenaBytes = *arenaMB << 20
	cfg.Runtime.Engine = eng

	srv, err := maligo.NewServer(cfg)
	if err != nil {
		log.Fatalf("malid: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("malid: serving on %s (device=%s workers=%d cache=%d dir=%q)",
		*addr, srv.Device().Name, *workers, *cacheN, *cacheDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("malid: %v", err)
		}
	case s := <-sig:
		fmt.Fprintln(os.Stderr)
		log.Printf("malid: %v, draining", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("malid: shutdown: %v", err)
	}
	srv.Close()
}

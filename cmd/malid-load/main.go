// Command malid-load drives a malid daemon with the nine paper
// benchmarks as a mixed multi-tenant job stream and reports
// go-bench-style metric lines:
//
//	malid-load -n 2000 -c 16 -tenants 4
//
// With no -addr it stands up an in-process daemon on a loopback
// listener, so the full HTTP stack is exercised without a separate
// process. -verify additionally runs every spec in-process through
// the job runtime and requires each served response body to be
// byte-identical to the in-process result — the serving layer's
// determinism contract. The driver is pure Go and runs under -race.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maligo"
)

func main() {
	var (
		addr    = flag.String("addr", "", "daemon base URL (empty = in-process loopback server)")
		n       = flag.Int("n", 900, "total requests")
		c       = flag.Int("c", 8, "concurrent clients")
		tenants = flag.Int("tenants", 3, "distinct tenants")
		verify  = flag.Bool("verify", true, "require served bodies byte-identical to in-process runs")
		minHit  = flag.Float64("min-hit-rate", 0, "fail unless cache hit rate reaches this (0 = don't check)")
		workers = flag.Int("workers", 0, "in-process server worker pool (0 = NumCPU)")
	)
	flag.Parse()

	base := *addr
	if base == "" {
		srv, err := maligo.NewServer(serverConfig(*workers))
		if err != nil {
			log.Fatalf("malid-load: %v", err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("malid-load: %v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}

	specs := maligo.JobMixSpecs()
	var want [][]byte
	if *verify {
		want = baselines(specs)
	}

	client := maligo.NewClient(base, &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: *c},
	})
	// Warm the program cache once per distinct program so the measured
	// stream exercises the repeat path the cache exists for.
	for _, s := range specs {
		if _, err := client.RegisterProgram(context.Background(), s.Source, s.Options); err != nil {
			log.Fatalf("malid-load: warm %s: %v", s.Kernel, err)
		}
	}

	var (
		next      atomic.Int64
		hits      atomic.Int64
		failures  atomic.Int64
		mismatch  atomic.Int64
		latencies = make([][]time.Duration, *c)
		wg        sync.WaitGroup
	)
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *c}}
	start := time.Now() // maligo:allow walltime load driver measures real host throughput
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				spec := *specs[i%len(specs)]
				spec.Tenant = fmt.Sprintf("tenant-%d", i%*tenants)
				t0 := time.Now() // maligo:allow walltime load driver measures real request latency
				body, hit, err := postJob(httpc, base, &spec)
				latencies[w] = append(latencies[w], time.Since(t0))
				if err != nil {
					failures.Add(1)
					log.Printf("malid-load: job %d (%s): %v", i, spec.Kernel, err)
					continue
				}
				if hit {
					hits.Add(1)
				}
				if want != nil && !bytes.Equal(body, want[i%len(specs)]) {
					mismatch.Add(1)
					log.Printf("malid-load: job %d (%s): served body differs from in-process result", i, spec.Kernel)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	ok := int64(len(all)) - failures.Load()
	hitRate := 0.0
	if ok > 0 {
		hitRate = float64(hits.Load()) / float64(ok)
	}

	name := fmt.Sprintf("BenchmarkMalidLoad/c=%d/tenants=%d", *c, *tenants)
	fmt.Printf("%s\t%8d\t%12.0f ns/op\t%10.1f req/s\t%12d p50-ns\t%12d p99-ns\t%8.3f hit-rate\n",
		name, len(all),
		float64(elapsed.Nanoseconds())/float64(max(1, len(all))),
		float64(len(all))/elapsed.Seconds(),
		pct(all, 0.50).Nanoseconds(), pct(all, 0.99).Nanoseconds(), hitRate)

	if f := failures.Load(); f > 0 {
		log.Fatalf("malid-load: %d/%d jobs failed", f, len(all))
	}
	if m := mismatch.Load(); m > 0 {
		log.Fatalf("malid-load: %d served bodies differed from in-process results", m)
	}
	if *minHit > 0 && hitRate < *minHit {
		log.Fatalf("malid-load: cache hit rate %.3f below required %.3f", hitRate, *minHit)
	}
	fmt.Fprintf(os.Stderr, "malid-load: %d ok, 0 failed, hit rate %.3f, %s total\n",
		len(all), hitRate, elapsed.Round(time.Millisecond))
}

func serverConfig(workers int) maligo.ServerConfig {
	var cfg maligo.ServerConfig
	cfg.Runtime.Workers = workers
	cfg.MaxQueued = 256
	cfg.MaxConcurrent = 8
	return cfg
}

// baselines runs every spec in-process and returns the exact bytes
// the daemon must serve for it: json.Marshal plus the encoder's
// trailing newline.
func baselines(specs []*maligo.JobSpec) [][]byte {
	r := maligo.NewJobRunner(0)
	defer r.Close()
	out := make([][]byte, len(specs))
	for i, s := range specs {
		res, err := r.Run(s)
		if err != nil {
			log.Fatalf("malid-load: baseline %s: %v", s.Kernel, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			log.Fatalf("malid-load: baseline %s: %v", s.Kernel, err)
		}
		out[i] = append(b, '\n')
	}
	return out
}

// postJob submits one job and returns the raw response body (for
// byte-level comparison), the cache disposition, and any error.
func postJob(hc *http.Client, base string, spec *maligo.JobSpec) ([]byte, bool, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, false, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, false, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("HTTP %d: %s", res.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, res.Header.Get("X-Malid-Cache") == "hit", nil
}

// pct returns the p-th percentile of sorted latencies.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"maligo"
)

// The serve-cold workload drives an in-process malid daemon behind a
// loopback listener with the nine-kernel JobMixSpecs mix: 2 closed-loop
// clients, one tenant each, since the host has 2 CPUs and
// Client.RunJob waits for its reply. The daemon runs the §V optimizer
// at admission (ServerConfig.Optimize) and every request's source is
// salted, so every admission misses the program cache and pays for
// compile, the analysis gate and the transform pipeline.
const serveClients = 2

// serveGCPercent is the collector setting serve-cold runs at, as
// `GOGC=400 malid` would. Admission analysis allocates about 0.7 GB/s;
// at the default of 100 the collector runs about 14 times a second and
// its pacing settles differently from run to run: in five interleaved
// pairs of 30-second runs on the 2-CPU reference host, throughput
// ranged over 16% at 100 and 5% at 400, and 400 was faster in every
// pair.
const serveGCPercent = 400

// warmCycles is the mix cycles each client sends before timing starts:
// 2 clients × 4 cycles × 9 kernels = 72 programs, more than the 64 the
// default 128-entry program cache holds at 2 entries each.
const warmCycles = 4

// setup_s on serve-cold is the median over serveSetupReps samples,
// each the mean of serveSetupBatch daemon start-ups (construction and
// listener, tens of microseconds each).
const (
	serveSetupReps  = 9
	serveSetupBatch = 100
)

// serveWorkload holds one serve run's daemon and its expectations.
type serveWorkload struct {
	seed    int64
	specs   []*maligo.JobSpec
	names   []string                  // benchmark name per mix entry
	want    [][]byte                  // in-process result body per mix entry
	wantIDs []string                  // program id inside want
	progs   []*maligo.CompiledProgram // what the daemon runs per mix entry
	clients []*mixClient
	d       *daemon
	hc      *http.Client
}

// reqSample is one request as the client saw it.
type reqSample struct {
	kernel int
	ms     float64 // latency; +Inf when the request failed
	bytes  int     // request plus response body
	hit    bool    // X-Malid-Cache: hit
}

func runServe(c runConfig, o *outcome) error {
	defer debug.SetGCPercent(debug.SetGCPercent(serveGCPercent))
	w := &serveWorkload{seed: c.seed, specs: maligo.JobMixSpecs()}
	if err := w.expect(); err != nil {
		return err
	}
	setups, err := timeSetups(serveSetupReps, serveSetupBatch, func() (func(), error) {
		d, err := startDaemon(serveConfig)
		if err != nil {
			return nil, err
		}
		return d.close, nil
	})
	if err != nil {
		return err
	}
	if w.d, err = startDaemon(serveConfig); err != nil {
		return err
	}
	defer w.d.close()
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()
	w.hc = &http.Client{Transport: tr}
	for i := 0; i < serveClients; i++ {
		w.clients = append(w.clients, newMixClient(c.seed, i))
	}
	// Warm-up: its requests are checked but not timed. They fill the
	// runtime's context pool and the program cache, so timing starts
	// at the steady state of one eviction per admission.
	w.phase(0, warmCycles*len(w.specs), o)

	if !c.trace {
		samples, wall := w.phase(c.seconds, 0, o)
		lat := latencies(samples)
		o.set("setup_s", median(setups))
		o.set("ops_per_s", float64(verified(samples))/wall)
		o.set("p50_ms", quantile(lat, 0.5))
		o.set("tail_ms", quantile(lat, c.tailPct/100))
		o.sample("setup_s", setups)
		o.sample("request_ms", lat)
		return nil
	}

	plain, plainWall := w.phase(c.seconds/2, 0, o)
	before, err := w.scrape()
	if err != nil {
		return err
	}
	var samples []reqSample
	var wall float64
	tot, shares, err := traced(c, func() { samples, wall = w.phase(c.seconds/2, 0, o) })
	if err != nil {
		return err
	}
	after, err := w.scrape()
	if err != nil {
		return err
	}
	setLayerShares(o, tot, shares, (float64(verified(plain))/plainWall)/(float64(verified(samples))/wall))
	return w.setLayerCounts(o, samples, wall, before, after)
}

// expect computes, in-process, the exact body the daemon must serve
// for each mix entry: JobRunner.RunCompiled on the optimized program
// the daemon runs, as JSON plus the encoder's newline.
func (w *serveWorkload) expect() error {
	r := maligo.NewJobRunner(0)
	defer r.Close()
	for _, s := range w.specs {
		name := ""
		for _, b := range maligo.Benchmarks() {
			if b.Source() == s.Source {
				name = b.Name()
			}
		}
		if name == "" {
			return fmt.Errorf("mix kernel %s matches no benchmark", s.Kernel)
		}
		prog, err := maligo.Compile("program.cl", s.Source, s.Options)
		if err != nil {
			return fmt.Errorf("compile %s: %w", name, err)
		}
		prog, _ = maligo.Optimize(prog)
		res, err := r.RunCompiled(s, prog)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", name, err)
		}
		body, err := json.Marshal(res)
		if err != nil {
			return err
		}
		w.names = append(w.names, name)
		w.progs = append(w.progs, prog)
		w.want = append(w.want, append(body, '\n'))
		w.wantIDs = append(w.wantIDs, res.ProgramID)
	}
	return nil
}

// serveConfig is the daemon's -optimize admission mode; everything
// else is the default ServerConfig.
var serveConfig = maligo.ServerConfig{Optimize: true}

// phase runs every client closed-loop, for seconds of wall time or,
// when requests > 0, for that many requests each, and returns the
// requests it timed and the phase's wall time.
func (w *serveWorkload) phase(seconds float64, requests int, o *outcome) ([]reqSample, float64) {
	start := now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	per := make([][]reqSample, len(w.clients))
	var wg sync.WaitGroup
	var mu sync.Mutex // guards o
	for i, c := range w.clients {
		wg.Add(1)
		go func(i int, c *mixClient) {
			defer wg.Done()
			for n := 0; ; n++ {
				if requests > 0 && n == requests || requests == 0 && !now().Before(deadline) {
					return
				}
				s, err := w.request(c)
				per[i] = append(per[i], s)
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail("%s: %v", w.names[s.kernel], err)
				}
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	wall := since(start).Seconds()
	var all []reqSample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// request sends the client's next mix request and checks the reply
// against the in-process result and the cache disposition the
// workload guarantees.
func (w *serveWorkload) request(c *mixClient) (reqSample, error) {
	k := c.next(len(w.specs))
	s := reqSample{kernel: k, ms: math.Inf(1)}
	spec := *w.specs[k]
	spec.Tenant = "tenant-" + strconv.Itoa(c.id)
	spec.Source = salted(spec.Source, w.seed, c.id, c.seq)
	want := bytes.Replace(w.want[k], []byte(w.wantIDs[k]), []byte(maligo.JobProgramID(spec.Source, spec.Options)), 1)
	body, err := json.Marshal(&spec)
	if err != nil {
		return s, err
	}
	t0 := now()
	got, cache, err := w.post(body)
	lat := since(t0)
	s.bytes = len(body) + len(got)
	if err != nil {
		return s, err
	}
	s.hit = cache == "hit"
	if cache != "miss" {
		return s, fmt.Errorf("X-Malid-Cache %q, want \"miss\"", cache)
	}
	if !bytes.Equal(got, want) {
		return s, fmt.Errorf("served body differs from the in-process result")
	}
	s.ms = ms(lat)
	return s, nil
}

// post submits one job document and returns the raw body and the
// cache disposition.
func (w *serveWorkload) post(body []byte) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, w.d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := w.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, "", err
	}
	if res.StatusCode != http.StatusOK {
		return data, "", fmt.Errorf("HTTP %d: %s", res.StatusCode, bytes.TrimSpace(data))
	}
	return data, res.Header.Get("X-Malid-Cache"), nil
}

// scrape reads the daemon's /metrics exposition into name → value
// (histogram lines are skipped).
func (w *serveWorkload) scrape() (map[string]float64, error) {
	text, err := maligo.NewClient(w.d.base, w.hc).Metrics(context.Background())
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, nil
}

// setLayerCounts records the serve-side per-layer metrics of the
// traced phase.
func (w *serveWorkload) setLayerCounts(o *outcome, samples []reqSample, wall float64, before, after map[string]float64) error {
	inproc, err := w.inProcessMS()
	if err != nil {
		return err
	}
	var items, bytesSum, hits, latSum float64
	var overhead []float64
	byKernel := make([][]float64, len(w.specs))
	for _, s := range samples {
		bytesSum += float64(s.bytes)
		if s.hit {
			hits++
		}
		if math.IsInf(s.ms, 1) {
			continue
		}
		items += float64(w.specs[s.kernel].WorkItems())
		latSum += s.ms / 1000
		overhead = append(overhead, s.ms-inproc[s.kernel])
		byKernel[s.kernel] = append(byKernel[s.kernel], s.ms)
	}
	n := float64(len(samples))
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	o.set("vm.work_items", items)
	o.set("timing.dram_bytes", 0) // the /v1 API does not expose simulated DRAM traffic
	o.set("timing.l2_hit_rate", 0)
	o.set("progcache.hit_ratio", ratio(hits, n))
	o.set("progcache.entries", after["malid.cache.entries"])
	o.set("opt.optimized_ratio", ratio(delta("malid.programs.optimized"), n-hits))
	o.set("job.batched_ratio", ratio(delta("malid.jobs.batched"), delta("malid.jobs.submitted")))
	o.set("http.bytes_per_req", ratio(bytesSum, n))
	o.set("service.overhead_ms", median(overhead))
	o.set("harness.measured_s", latSum)
	o.set("harness.other_s", serveClients*wall-latSum)
	for _, b := range maligo.BenchmarkNames() {
		for k, name := range w.names {
			if name != b {
				continue
			}
			sum := 0.0
			for _, v := range byKernel[k] {
				sum += v / 1000
			}
			o.set("kernel."+b+".p50_ms", median(byKernel[k]))
			o.set("bench."+b+".host_s", sum)
		}
	}
	o.sample("request_ms", latencies(samples))
	o.sample("inprocess_ms", inproc)
	return nil
}

// inProcessMS times JobRunner.RunCompiled on each mix entry's program
// (median of several runs), the work a request wraps.
func (w *serveWorkload) inProcessMS() ([]float64, error) {
	const reps = 9
	r := maligo.NewJobRunner(0)
	defer r.Close()
	out := make([]float64, len(w.specs))
	for k, s := range w.specs {
		var times []float64
		for i := 0; i < reps; i++ {
			t0 := now()
			if _, err := r.RunCompiled(s, w.progs[k]); err != nil {
				return nil, fmt.Errorf("in-process %s: %w", w.names[k], err)
			}
			times = append(times, ms(since(t0)))
		}
		out[k] = median(times)
	}
	return out, nil
}

// latencies returns the sorted request latencies; failed requests
// count as infinitely slow.
func latencies(samples []reqSample) []float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.ms
	}
	return sortedCopy(lat)
}

func verified(samples []reqSample) int {
	n := 0
	for _, s := range samples {
		if !math.IsInf(s.ms, 1) {
			n++
		}
	}
	return n
}

// daemon is an in-process malid behind a loopback listener.
type daemon struct {
	srv    *maligo.Server
	hs     *http.Server
	base   string
	served chan error
}

func startDaemon(cfg maligo.ServerConfig) (*daemon, error) {
	srv, err := maligo.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener, waits for open requests and the serve
// loop, then drains the daemon.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.hs.Shutdown(ctx) != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Close()
}

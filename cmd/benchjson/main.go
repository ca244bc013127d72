// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document, for committing benchmark baselines:
//
//	go test -run xxx -bench BenchmarkEngine ./internal/vm | benchjson > BENCH_vm_v2.json
//
// Benchmarks that appear multiple times (go test -count N) are
// aggregated to the fastest run, the conventional noise-resistant
// summary for committed baselines. Beyond the three standard columns
// (ns/op, B/op, allocs/op) any `value unit` metric pair a benchmark
// reports — b.ReportMetric or a tool like malid-load emitting the
// same format — is kept in a "metrics" map keyed by unit.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	BytesPerOp int64              `json:"bytes_per_op,omitempty"`
	AllocsOp   int64              `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Document is the whole baseline file.
type Document struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Package    string   `json:"pkg,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

var (
	benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)
	// metricPair matches one `value unit` column: a number followed by
	// a unit token (ns/op, B/op, req/s, p99-ns, hit-rate, MB/s, ...).
	metricPair = regexp.MustCompile(`([\d.eE+-]+)\s+([A-Za-z][\w./%-]*)`)
)

// parse decodes one benchmark line, or ok=false when it isn't one.
func parse(line string) (Result, bool) {
	m := benchName.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	r := Result{Name: m[1]}
	r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
		v, err := strconv.ParseFloat(pair[1], 64)
		if err != nil {
			continue
		}
		switch pair[2] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[pair[2]] = v
		}
	}
	return r, true
}

// better reports whether a beats b as the committed summary: fastest
// by ns/op when both report it, otherwise highest first metric.
func better(a, b Result) bool {
	if a.NsPerOp != 0 || b.NsPerOp != 0 {
		return a.NsPerOp < b.NsPerOp
	}
	for k, v := range a.Metrics {
		if bv, ok := b.Metrics[k]; ok {
			return v > bv
		}
	}
	return false
}

func main() {
	var doc Document
	index := make(map[string]int)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Package = strings.TrimPrefix(line, "pkg: ")
		}
		r, ok := parse(line)
		if !ok {
			continue
		}
		if i, dup := index[r.Name]; dup {
			if better(r, doc.Benchmarks[i]) {
				doc.Benchmarks[i] = r
			}
			continue
		}
		index[r.Name] = len(doc.Benchmarks)
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// Command perfbench is the repository's benchmark. It drives the real
// lockstep-inject and lockstep-serve programs as child processes for the
// end-to-end metrics, and times calls into each layer's public functions
// for the per-layer metrics (with -trace 1). See README.md for the
// workloads and metrics, and run.sh for how to run it.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// A human-readable table of the same metrics and the run's provenance
// (toolchain, CPU, source digest, seeds) is printed above it; progress
// goes to standard error.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupRepeats is how many times a campaign run times its fixed cost;
// setup_s is the median. A fixed-cost run lasts about 0.1 s and single
// runs spread by half on a shared host, so the median needs many.
const setupRepeats = 11

type env struct {
	bin   string    // directory holding the built programs
	work  string    // scratch directory for this run's files
	root  string    // repository checkout the programs were built from
	rates []float64 // every host rate calibrate measured, in order
}

// The host's speed drifts by a quarter and more over minutes, as other
// tenants come and go, and moves every time-based figure with it. An
// untraced run therefore calibrates the host between the units it
// measures (campaign runs, servers) and reports its time-based figures
// as they would read on a host that runs the calibration workload at
// refHostRate, scaled by the median of the run's calibrations. The
// measured figures and the host rate are printed too; peak RSS and the
// per-layer metrics are reported as measured.
const (
	refHostRate     = 400_000.0 // calibration units per second
	calibrationTime = 500 * time.Millisecond
)

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// calibrate measures the host rate now and remembers it.
func (e *env) calibrate() {
	e.rates = append(e.rates, hostRate(calibrationTime))
}

// atReference scales the time-based end-to-end metrics to the reference
// host speed: durations and CPU times by host/ref, throughput by
// ref/host.
func (r *result) atReference(host float64) {
	for name, m := range r.Metrics {
		switch name {
		case "ops_per_s":
			m.Value *= refHostRate / host
		case "cpu_us_per_op", "p50_ms", "p99_ms", "setup_s":
			m.Value *= host / refHostRate
		default:
			continue
		}
		r.Metrics[name] = m
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "campaign-wide, campaign-deep-tmr or predict-closed")
		seed    = flag.Int64("seed", 1, "workload seed: campaign seed and predict load seed")
		seconds = flag.Float64("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics from a traced run instead")
		e       env
	)
	flag.StringVar(&e.bin, "bin", "", "directory holding lockstep-inject and lockstep-serve")
	flag.StringVar(&e.work, "work", "", "scratch directory")
	flag.StringVar(&e.root, "root", ".", "repository checkout")
	flag.Parse()
	if err := run(&e, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(e *env, name string, seed int64, seconds float64, traced bool) error {
	if e.bin == "" || e.work == "" {
		return fmt.Errorf("-bin and -work are required (run the benchmark through run.sh)")
	}
	e.work = filepath.Join(e.work, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	var measure func() (*result, error)
	switch name {
	case "campaign-wide", "campaign-deep-tmr":
		spec := campaignWide
		if name == "campaign-deep-tmr" {
			spec = campaignDeepTMR
		}
		measure = func() (*result, error) { return campaignE2E(e, spec, seed, seconds) }
		if traced {
			measure = func() (*result, error) { return campaignTraced(e, spec, seed) }
		}
	case "predict-closed":
		measure = func() (*result, error) { return predictE2E(e, seed, seconds) }
		if traced {
			measure = func() (*result, error) { return predictTraced(e, seed, seconds) }
		}
	default:
		return fmt.Errorf("unknown workload %q", name)
	}

	prov := provenance(e, name, seed, seconds, traced)
	hostRate(calibrationTime / 2) // warm-up: fresh threads and pages
	e.calibrate()
	res, err := measure()
	if err != nil {
		return err
	}
	e.calibrate()
	host := median(e.rates)
	prov["host_rate"] = host
	prov["host_rate_ref"] = refHostRate
	if !traced {
		res.printMeasured()
		res.atReference(host)
	}
	if err := res.matchDeclared(filepath.Join(e.root, "BENCHMARK.json"), traced); err != nil {
		return err
	}
	res.print(prov)
	return nil
}

// matchDeclared checks that the run reports exactly the metrics, with
// the units, that BENCHMARK.json declares for its mode: end_to_end
// untraced, per_layer traced.
func (r *result) matchDeclared(path string, traced bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	if len(want) != len(r.Metrics) {
		return fmt.Errorf("run reports %d metrics, %s declares %d", len(r.Metrics), path, len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) declared in %s is not reported as such", m.Name, m.Unit, path)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's output: the output-check verdict, the operations
// attempted and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records n failed operations and a failed output check.
func (r *result) fail(n int, err error) {
	r.Correct = false
	r.Failed += n
	fmt.Fprintln(os.Stderr, "perfbench: OUTPUT CHECK FAILED:", err)
}

// check counts n operations whose output has digest got, all failed
// unless got matches want. It reports whether they matched.
func (r *result) check(what, want, got string, n int) bool {
	r.Attempted += n
	if got == want {
		return true
	}
	r.fail(n, fmt.Errorf("%s: sha256 %s, want %s", what, got, want))
	return false
}

// printMeasured prints the metrics as measured, before any scaling.
func (r *result) printMeasured() {
	for _, n := range r.names() {
		fmt.Printf("measured %-23s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

func (r *result) names() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *result) print(prov map[string]any) {
	for _, n := range r.names() {
		fmt.Printf("%-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	frac := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Printf("%-32s %16.6g %s (%d of %d operations)\n", "failed_frac", frac, "ratio", r.Failed, r.Attempted)
	p, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", p)
	out, _ := json.Marshal(r)
	fmt.Println(string(out))
}

// provenance is recorded with every result: what was measured, on what.
func provenance(e *env, name string, seed int64, seconds float64, traced bool) map[string]any {
	cpuModel := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         traced,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel,
		"source_sha256": sourceDigest(e.root),
	}
}

// sourceDigest identifies the measured code: a SHA-256 over the path and
// bytes of every Go source and module file of the program, in path
// order. It stands in for a commit, since the benchmark may run outside
// a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	for _, top := range []string{"go.mod", "cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	rank := int(float64(len(s))*p/100 + 0.9999999999)
	return s[min(max(rank, 1), len(s))-1]
}

// hostRate runs a fixed compute and memory workload on every CPU for d
// and returns work units per second: how fast the host runs right now.
// The workload is the benchmark's own, so no change to the program can
// move it.
func hostRate(d time.Duration) float64 {
	n := runtime.NumCPU()
	counts := make([]int64, n)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			table := make([]uint64, 1<<20) // 8 MiB, past the caches
			var buf [4096]byte
			x := uint64(c + 1)
			for time.Now().Before(deadline) {
				for i := 0; i < 16; i++ {
					s := sha256.Sum256(buf[:])
					x ^= uint64(s[0]) | uint64(s[1])<<8
					for j := 0; j < 256; j++ {
						x = x*6364136223846793005 + 1442695040888963407
						table[x>>44] += x
					}
					buf[i] = byte(x)
				}
				counts[c] += 16
			}
		}(c)
	}
	wg.Wait()
	var total int64
	for _, k := range counts {
		total += k
	}
	return float64(total) / d.Seconds()
}

// Command perfbench is the torusx benchmark. It drives one workload per
// process as a single closed-loop client: each request starts only after
// the previous one has returned. Requests are grouped into passes: a pass
// is the workload's whole request list in an order the seed shuffles.
// Passes repeat until the run has measured for -seconds and made the
// workload's minimum number of passes.
//
//	bash perfbench/run.sh --workload cold-compile --seed 1 --seconds 10 --trace 0
//
// Each workload times one kind of request, so that every end-to-end
// metric means one thing on every workload (see workloads.go for the
// request lists and the reasons for them):
//
//	paper-tables    one aapetab table cell, computed cold
//	cold-compile    one aape -progcache-dir request from an empty store
//	cold-load       one aape -progcache-dir request from a filled store
//	plan-auto       one aape -alg auto plan of a fresh traffic matrix
//	warm-replay     one torusx.Compare with the program cache warm
//	exchange-small  one torusx.ExchangeData of 64 B blocks at 16x16
//	exchange-large  one torusx.ExchangeData of 8 KiB blocks at 16x16
//
// With -trace 0 every request goes through the entry point a user calls,
// and the run reports the end-to-end metrics:
//
//	setup_s      median of the set-up runs (inputs, warm-up, cache fill)
//	ok_ratio     requests that passed their check over requests made
//	peak_rss_mb  peak resident memory of the process or of its children
//	pass_s       median wall time of a pass; on paper-tables, one table
//	op_ms_p50    median request latency
//	op_ms_p90    the highest quantile, at most 0.9, that leaves ten
//	             samples above it in the shortest run the workload allows
//
// With -trace 1 the benchmark makes the same requests through the public
// functions of each layer instead, and it times every layer call from
// this package. The run alternates traced and untraced passes and reports
// the per-layer metrics: each layer's busy time per pass (median over the
// traced passes), the exact counts of the first traced pass, a memmove
// floor for the payload workloads, and two checks on the trace itself:
// the share of a traced pass no layer span covers, and the traced over
// the untraced pass time. A layer a workload does not call reads 0.
//
// The benchmark checks every request's output outside the timed region.
// A request that errs or fails its check counts as failed. In the
// latency percentiles a failed request counts as slower than every limit.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"op_ms_p50": {"value": 61.2, "unit": "ms"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRuns is how many times a run repeats a repeatable set-up; setup_s
// is the median.
const setupRuns = 3

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tmp holds the tier-2 program stores the cache workloads write.
	tmp string
	// short sets up once and lowers every workload's minimum to two
	// passes; tests set it.
	short bool
}

// op is one timed request. run performs it: through the public entry
// point when tr is nil, or through each layer's public functions with a
// span around every call when tr is set. check verifies the output
// outside the timed region.
type op struct {
	label string
	run   func(tr *tracer) error
	check func() error
}

// suite is one workload.
type suite struct {
	// setup makes the inputs and warms the process. It runs before every
	// measurement, setupRuns times unless once is set.
	setup func() error
	// once marks a set-up that fills process-wide state, such as the
	// program cache behind torusx.Compare, so a repeat would not do the
	// same work.
	once bool
	// pass returns the requests of pass k; every pass has as many.
	pass func(k int) ([]op, error)
	// minPasses is the fewest passes an untraced run makes, even if that
	// takes longer than asked.
	minPasses int
	// render, if set, is timed after the requests of each pass and
	// counted in the pass time (the table aapetab prints).
	render func() error
	// isolate runs every pass in a fresh process, for requests that fill
	// process-wide state no later request of the workload reads.
	isolate bool
	// floor, if set, returns the GB/s of one memmove of the payload set.
	floor func() float64
	// payloadBytes is the bytes one request exchanges, if any.
	payloadBytes int64
	close        func()
}

// tracer collects one traced pass: busy time per layer and exact counts.
type tracer struct {
	Busy   map[string]time.Duration `json:"busy_ns"`
	Counts map[string]float64       `json:"counts"`
}

func newTracer() *tracer {
	return &tracer{Busy: map[string]time.Duration{}, Counts: map[string]float64{}}
}

// span runs f and charges its wall time to layer.
func (tr *tracer) span(layer string, f func() error) error {
	start := time.Now()
	err := f()
	tr.Busy[layer] += time.Since(start)
	return err
}

func (tr *tracer) add(name string, v float64) { tr.Counts[name] += v }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerMetrics are the traced busy-time metrics: tracer layer name,
// reported unit and the unit's length in nanoseconds.
var layerMetrics = []struct {
	name string
	unit string
	ns   float64
}{
	{"exchange.run_ms", "ms", 1e6},
	{"baseline.schedule_ms", "ms", 1e6},
	{"exec.run_ms", "ms", 1e6},
	{"algorithm.build_schedule_ms", "ms", 1e6},
	{"exec.compile_ms", "ms", 1e6},
	{"progcache.tier2_store_ms", "ms", 1e6},
	{"progcache.tier2_load_ms", "ms", 1e6},
	{"traffic.sparse_schedule_ms", "ms", 1e6},
	{"progcache.lookup_us", "us", 1e3},
	{"exec.arena_acquire_us", "us", 1e3},
	{"exec.replay_ms", "ms", 1e6},
	{"simchan.run_payload_ms", "ms", 1e6},
	{"verify.delivered_ms", "ms", 1e6},
}

// countMetrics are the exact counts of the first traced pass. A tracer
// adds integers only, so the sums do not depend on request order; scale
// converts the count to the reported unit.
var countMetrics = []struct {
	name, unit string
	scale      float64
}{
	{"table.cells", "count", 1},
	{"exec.bytes_moved", "B", 1},
	{"exec.program_mb", "MB", 1e-6},
	{"progcache.compiles", "count", 1},
	{"progcache.tier2_hits", "count", 1},
	{"simchan.messages", "count", 1},
	{"measure.steps", "count", 1},
	{"measure.blocks", "count", 1},
	{"measure.hops", "count", 1},
	{"measure.rearranged", "count", 1},
}

func main() {
	var cfg config
	var traceFlag, pass int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for request order, traffic matrices and payload bytes")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measure for this many seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 times every layer call and reports the per-layer metrics")
	flag.StringVar(&cfg.tmp, "tmp", filepath.Join(".bench_build", "perfbench"), "directory for scratch files")
	flag.IntVar(&pass, "pass", -1, "run only pass `k` and print it as JSON (the child process of an isolated workload)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must not be negative")
		os.Exit(2)
	}
	if pass >= 0 {
		if err := child(cfg, pass); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg.tmp = tmp
	res, report, err := run(cfg)
	// The stores are scratch: remove them before exiting either way.
	if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// child runs pass k of an isolated workload and prints it as JSON. It
// sets up first, so the pass's requests find the process as warm as
// those of a workload that is not isolated.
func child(cfg config, k int) error {
	limitProcs()
	s, err := newSuite(cfg)
	if err != nil {
		return err
	}
	if err := s.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	pr, err := runPass(s, k, cfg.trace)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(pr)
}

// limitProcs keeps GOMAXPROCS at or below the CPU count.
func limitProcs() {
	if procs := runtime.NumCPU(); runtime.GOMAXPROCS(0) > procs {
		runtime.GOMAXPROCS(procs)
	}
}

// run sets the workload up, measures it and returns the result line and
// a human-readable report of it.
func run(cfg config) (*result, string, error) {
	limitProcs()
	s, err := newSuite(cfg)
	if err != nil {
		return nil, "", err
	}
	if s.close != nil {
		defer s.close()
	}
	runs := setupRuns
	if s.once || cfg.short {
		runs = 1
	}
	var setups []float64
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := s.setup(); err != nil {
			return nil, "", fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var (
		lat        []float64 // ms per request; +Inf for a failed one
		passes     []float64 // untraced pass seconds
		tpasses    []float64 // traced pass seconds
		traces     []*tracer
		floors     []float64
		attempted  int
		failed     int
		firstError string
	)
	start := time.Now()
	for k := 0; ; k++ {
		// A traced run alternates traced and untraced passes, starting
		// with a traced one, so it can report the tracing overhead.
		traced := cfg.trace && k%2 == 0
		if traced && s.floor != nil {
			floors = append(floors, s.floor())
		}
		var pr *passResult
		if s.isolate {
			pr, err = runChild(cfg, k, traced)
		} else {
			pr, err = runPass(s, k, traced)
		}
		if err != nil {
			return nil, "", fmt.Errorf("%s pass %d: %w", cfg.workload, k, err)
		}
		attempted += len(pr.Lat) + len(pr.Errors)
		failed += len(pr.Errors)
		if firstError == "" && len(pr.Errors) > 0 {
			firstError = pr.Errors[0]
		}
		lat = append(lat, pr.Lat...)
		for range pr.Errors {
			lat = append(lat, math.Inf(1))
		}
		if traced {
			traces = append(traces, pr.Trace)
			tpasses = append(tpasses, pr.Seconds)
		} else {
			passes = append(passes, pr.Seconds)
		}
		minPasses := s.minPasses
		if cfg.trace || cfg.short {
			minPasses = 2
		}
		if k+1 >= minPasses && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	if firstError != "" {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %s\n", firstError)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var info []string
	if !cfg.trace {
		// The peak of this process or of its largest child, if any.
		var ru, cru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, "", fmt.Errorf("getrusage: %w", err)
		}
		if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &cru); err != nil {
			return nil, "", fmt.Errorf("getrusage: %w", err)
		}
		ru.Maxrss = max(ru.Maxrss, cru.Maxrss)
		// The tail quantile follows from the fewest samples a run may
		// hold, not from how many this one held: the same rank of the
		// same request mix then lands on the same request on every run.
		perPass := len(lat) / len(passes)
		q := tailQuantile(s.minPasses * perPass)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ok_ratio"] = metric{1 - float64(failed)/float64(attempted), "ratio"}
		res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"} // Maxrss is in KiB on Linux
		res.Metrics["pass_s"] = metric{median(passes), "s"}
		res.Metrics["op_ms_p50"] = metric{finite(quantile(lat, 0.5)), "ms"}
		res.Metrics["op_ms_p90"] = metric{finite(quantile(lat, q)), "ms"}
		info = append(info,
			fmt.Sprintf("samples: %d requests in %d passes; op_ms_p90 is the p%.1f", len(lat), len(passes), 100*q))
		if s.payloadBytes > 0 {
			info = append(info, fmt.Sprintf("payload: %d B per request, %.3f GB/s at op_ms_p50",
				s.payloadBytes, float64(s.payloadBytes)/quantile(lat, 0.5)/1e6))
		}
	} else {
		for _, lm := range layerMetrics {
			per := make([]float64, len(traces))
			for i, tr := range traces {
				per[i] = float64(tr.Busy[lm.name]) / lm.ns
			}
			res.Metrics[lm.name] = metric{median(per), lm.unit}
		}
		first := traces[0]
		for _, cm := range countMetrics {
			res.Metrics[cm.name] = metric{first.Counts[cm.name] * cm.scale, cm.unit}
		}
		hits, compiles := first.Counts["progcache.tier2_hits"], first.Counts["progcache.compiles"]
		ratio := 0.0
		if hits+compiles > 0 {
			ratio = hits / (hits + compiles)
		}
		res.Metrics["progcache.tier2_hit_ratio"] = metric{ratio, "ratio"}
		// Compiles a warm request made because the program cache had
		// evicted its program, over every traced pass. Not an exact
		// count: which programs share a cache shard varies per process.
		warm := 0.0
		for _, tr := range traces {
			warm += tr.Counts["progcache.warm_compiles"]
		}
		res.Metrics["progcache.warm_compiles"] = metric{warm, "count"}

		unaccounted := make([]float64, len(traces))
		for i, tr := range traces {
			var covered time.Duration
			for _, d := range tr.Busy {
				covered += d
			}
			unaccounted[i] = 1 - covered.Seconds()/tpasses[i]
		}
		res.Metrics["trace.unaccounted_ratio"] = metric{median(unaccounted), "ratio"}
		res.Metrics["trace.overhead_ratio"] = metric{median(tpasses) / median(passes), "ratio"}

		floor, gbps, xFloor := 0.0, 0.0, 0.0
		if s.floor != nil {
			floor = median(floors)
			gbps = float64(s.payloadBytes) / median(passes) / 1e9
			xFloor = gbps / floor
		}
		res.Metrics["floor.memmove_gbps"] = metric{floor, "GB/s"}
		res.Metrics["exchange.gbps"] = metric{gbps, "GB/s"}
		res.Metrics["exchange.x_floor"] = metric{xFloor, "ratio"}
		res.Metrics["samples.ops"] = metric{float64(len(lat)), "count"}
		res.Metrics["samples.passes"] = metric{float64(len(passes) + len(tpasses)), "count"}
	}
	return res, formatReport(cfg, res, info), nil
}

// passResult is one pass: the latency of every request that passed its
// check, one line per request that failed, the pass time and, for a
// traced pass, its trace.
type passResult struct {
	Lat     []float64 `json:"lat_ms"`
	Errors  []string  `json:"errors"`
	Seconds float64   `json:"seconds"`
	Trace   *tracer   `json:"trace"`
}

// runPass runs pass k of s in this process.
func runPass(s *suite, k int, traced bool) (*passResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ops, err := s.pass(k)
	if err != nil {
		return nil, err
	}
	pr := &passResult{Trace: tr}
	var pass time.Duration
	for _, o := range ops {
		t0 := time.Now()
		err := o.run(tr)
		d := time.Since(t0)
		pass += d
		if err == nil {
			err = o.check()
		}
		if err != nil {
			pr.Errors = append(pr.Errors, fmt.Sprintf("%s: %v", o.label, err))
			continue
		}
		pr.Lat = append(pr.Lat, float64(d)/1e6)
	}
	if s.render != nil {
		t0 := time.Now()
		err := s.render()
		pass += time.Since(t0)
		if err != nil {
			pr.Errors = append(pr.Errors, fmt.Sprintf("render: %v", err))
		}
	}
	pr.Seconds = pass.Seconds()
	return pr, nil
}

// childEnv marks a child process, so that a test binary can tell it is
// to run main.
const childEnv = "PERFBENCH_CHILD"

// runChild runs pass k in a fresh process of this program and waits for
// it to exit.
func runChild(cfg config, k int, traced bool) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-trace", trace, "-tmp", cfg.tmp, "-pass", fmt.Sprint(k))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var pr passResult
	if err := json.Unmarshal(out, &pr); err != nil {
		return nil, fmt.Errorf("child process output: %w", err)
	}
	if traced && pr.Trace == nil {
		return nil, fmt.Errorf("child process returned no trace")
	}
	return &pr, nil
}

// formatReport renders the result as one line per metric, after a line
// of run facts.
func formatReport(cfg config, res *result, info []string) string {
	out := fmt.Sprintf("perfbench %s seed=%d trace=%v GOMAXPROCS=%d NumCPU=%d %s/%s\n",
		cfg.workload, cfg.seed, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	for _, line := range info {
		out += "  " + line + "\n"
	}
	out += fmt.Sprintf("  requests: %d attempted, %d failed\n", res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		out += fmt.Sprintf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return out
}

// tailQuantile is the highest quantile that leaves at least ten samples
// above it, capped at 0.9 and never below the median.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.9, q))
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// finite maps the +Inf of a failed request to the largest float, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// median returns the middle of xs, averaging the two middle values of an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// shuffled returns a copy of xs in the order the seed gives pass k.
func shuffled[T any](xs []T, seed int64, k int) []T {
	out := append([]T(nil), xs...)
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

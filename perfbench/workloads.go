package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"torusx"
	"torusx/internal/algorithm"
	"torusx/internal/baseline"
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/progcache"
	"torusx/internal/schedule"
	"torusx/internal/simchan"
	"torusx/internal/stats"
	"torusx/internal/topology"
	"torusx/internal/traffic"
	"torusx/internal/verify"
)

// workloads lists every workload in the order of BENCHMARK.json. Each
// runs in its own process, so no workload warms another's process-wide
// program cache.
var workloads = []struct {
	name  string
	build func(cfg config) (*suite, error)
}{
	{"paper-tables", paperTables},
	{"cold-compile", func(cfg config) (*suite, error) { return coldStart(cfg, false) }},
	{"cold-load", func(cfg config) (*suite, error) { return coldStart(cfg, true) }},
	{"plan-auto", planAuto},
	{"warm-replay", warmReplay},
	{"exchange-small", func(cfg config) (*suite, error) { return exchangeData(cfg, 64) }},
	{"exchange-large", func(cfg config) (*suite, error) { return exchangeData(cfg, 8<<10) }},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func newSuite(cfg config) (*suite, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			return w.build(cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
}

// call runs f, inside a span charged to layer when tr is set.
func call(tr *tracer, layer string, f func() error) error {
	if tr == nil {
		return f()
	}
	return tr.span(layer, f)
}

// addMeasure adds m to the traced pass's summed Measure counts.
func addMeasure(tr *tracer, m costmodel.Measure) {
	if tr == nil {
		return
	}
	tr.add("measure.steps", float64(m.Steps))
	tr.add("measure.blocks", float64(m.Blocks))
	tr.add("measure.hops", float64(m.Hops))
	tr.add("measure.rearranged", float64(m.RearrangedBlocks))
}

// isPow2 reports whether every dimension is a power of two, the
// precondition of the logtime baseline.
func isPow2(dims []int) bool {
	for _, d := range dims {
		if d&(d-1) != 0 {
			return false
		}
	}
	return true
}

// tableShapes are the paper-tables shapes. 32x32 (Direct alone takes
// about 17 s) and 12x12x12 are left out so that a run holds several
// passes.
var tableShapes = [][]int{{8, 8}, {12, 12}, {16, 16}, {8, 8, 4}}

var tableAlgs = []string{"proposed", "ring", "direct", "factored", "logtime"}

type cell struct {
	alg  string
	dims []int
}

func (c cell) label() string { return c.alg + " " + shape(c.dims) }

func tableCells(shapes [][]int) []cell {
	var cells []cell
	for _, dims := range shapes {
		for _, alg := range tableAlgs {
			if alg == "logtime" && !isPow2(dims) {
				continue
			}
			cells = append(cells, cell{alg, dims})
		}
	}
	return cells
}

// computeCell computes one table cell cold, the way aapetab does:
// exchange.Run for the proposed algorithm and the baseline package's
// legacy executor for the rest.
func computeCell(tr *tracer, alg string, t *topology.Torus) (costmodel.Measure, []*block.Buffer, error) {
	if alg == "proposed" {
		var res *exchange.Result
		err := call(tr, "exchange.run_ms", func() (err error) {
			res, err = exchange.Run(t, exchange.Options{})
			return err
		})
		if err != nil {
			return costmodel.Measure{}, nil, err
		}
		return costmodel.Measure{
			Steps:            res.Counters.Steps,
			Blocks:           res.Counters.SumMaxBlocks,
			Hops:             res.Counters.SumMaxHops,
			RearrangedBlocks: res.Counters.RearrangedBlocksMaxPerNode,
		}, res.Buffers, nil
	}
	if tr == nil {
		switch alg {
		case "ring":
			r := baseline.Ring(t)
			return r.Measure, r.Buffers, nil
		case "direct":
			r := baseline.Direct(t)
			return r.Measure, r.Buffers, nil
		case "factored":
			r, err := baseline.Factored(t)
			if err != nil {
				return costmodel.Measure{}, nil, err
			}
			return r.Measure, r.Buffers, nil
		case "logtime":
			r, err := baseline.LogTime(t)
			if err != nil {
				return costmodel.Measure{}, nil, err
			}
			return r.Measure, r.Buffers, nil
		}
		return costmodel.Measure{}, nil, fmt.Errorf("no table cell for %q", alg)
	}
	// Traced: the two calls each baseline entry point makes.
	var sc *schedule.Schedule
	err := tr.span("baseline.schedule_ms", func() (err error) {
		switch alg {
		case "ring":
			sc = baseline.RingSchedule(t)
		case "direct":
			sc = baseline.DirectSchedule(t)
		case "factored":
			sc, err = baseline.FactoredSchedule(t)
		case "logtime":
			sc, err = baseline.LogTimeSchedule(t)
		default:
			err = fmt.Errorf("no table cell for %q", alg)
		}
		return err
	})
	if err != nil {
		return costmodel.Measure{}, nil, err
	}
	var res *exec.Result
	if err := tr.span("exec.run_ms", func() (err error) {
		res, err = exec.Run(sc, exec.Options{})
		return err
	}); err != nil {
		return costmodel.Measure{}, nil, err
	}
	return res.Measure, res.Buffers, nil
}

// paperTables computes every cell of the comparison table cold and
// renders it, as aapetab does. The legacy executor does most of the work.
func paperTables(cfg config) (*suite, error) {
	cells := tableCells(tableShapes)
	tori := map[string]*topology.Torus{}
	for _, dims := range tableShapes {
		t, err := topology.New(dims...)
		if err != nil {
			return nil, err
		}
		tori[shape(dims)] = t
	}
	got := map[string]costmodel.Measure{}
	cellOp := func(c cell) op {
		t := tori[shape(c.dims)]
		var m costmodel.Measure
		var bufs []*block.Buffer
		return op{
			label: c.label(),
			run: func(tr *tracer) (err error) {
				m, bufs, err = computeCell(tr, c.alg, t)
				if tr != nil && err == nil {
					tr.add("table.cells", 1)
					addMeasure(tr, m)
				}
				return err
			},
			check: func() error {
				w, err := want(c.alg, c.dims)
				if err != nil {
					return err
				}
				if m != w {
					return fmt.Errorf("measure %+v, want %+v", m, w)
				}
				if err := verify.Delivered(t, bufs); err != nil {
					return err
				}
				got[c.label()] = m
				return nil
			},
		}
	}
	p := costmodel.T3D(64)
	return &suite{
		// Set-up runs the 8x8 cells once: it warms the code paths and the
		// heap, as the first cells of an aapetab run do.
		setup: func() error {
			for _, c := range tableCells([][]int{{8, 8}}) {
				o := cellOp(c)
				if err := o.run(nil); err != nil {
					return fmt.Errorf("%s: %w", o.label, err)
				}
				if err := o.check(); err != nil {
					return fmt.Errorf("%s: %w", o.label, err)
				}
			}
			return nil
		},
		pass: func(k int) ([]op, error) {
			var ops []op
			for _, c := range shuffled(cells, cfg.seed, k) {
				ops = append(ops, cellOp(c))
			}
			return ops, nil
		},
		// Six passes of 19 cells leave ten cells above the p90 and hold
		// a short slow spell of the host to a minority of the passes.
		minPasses: 6,
		render: func() error {
			tb := stats.NewTable(fmt.Sprintf("Completion time; %s", p), append([]string{"network"}, tableAlgs...)...)
			for _, dims := range tableShapes {
				row := []string{shape(dims)}
				for _, alg := range tableAlgs {
					m, ok := got[alg+" "+shape(dims)]
					switch {
					case ok:
						row = append(row, stats.FmtUS(p.Completion(m)))
					case alg == "logtime" && !isPow2(dims):
						row = append(row, "-")
					default:
						return fmt.Errorf("cell %s %s missing", alg, shape(dims))
					}
				}
				tb.AddRow(row...)
			}
			_ = tb.String()
			clear(got)
			return nil
		},
	}, nil
}

// request is one (algorithm, shape) pair of the registry.
type request struct {
	alg  string
	dims []int
	t    *topology.Torus
	b    algorithm.Builder
	want costmodel.Measure
}

func (r *request) label() string { return r.alg + " " + shape(r.dims) }

var requestShapes = [][]int{{16, 16}, {8, 8, 4}}

// coldAlgs are the cold-start algorithms. The measure-only "proposed"
// program replays nothing; it appears only here.
var coldAlgs = []string{"proposed", "proposed-sim", "direct", "ring", "factored", "logtime"}

// warmAlgs are the algorithms whose programs carry payloads, so a warm
// request replays real block movement.
var warmAlgs = []string{"proposed-sim", "direct", "ring", "factored", "logtime"}

func newRequests(algs []string, shapes [][]int) ([]*request, error) {
	var rs []*request
	for _, dims := range shapes {
		t, err := topology.New(dims...)
		if err != nil {
			return nil, err
		}
		for _, alg := range algs {
			b, err := algorithm.For(alg)
			if err != nil {
				return nil, err
			}
			w, err := want(alg, dims)
			if err != nil {
				return nil, err
			}
			rs = append(rs, &request{alg: alg, dims: dims, t: t, b: b, want: w})
		}
	}
	return rs, nil
}

// replay runs pg once in a pooled arena, as torusx.Compare does, and
// returns the replay's result (nil for a measure-only program).
func replay(tr *tracer, pg *exec.Program) (*exec.Result, error) {
	if !pg.Replayable() {
		return nil, nil
	}
	var a *exec.Arena
	_ = call(tr, "exec.arena_acquire_us", func() error { a = pg.AcquireArena(); return nil })
	var res *exec.Result
	if err := call(tr, "exec.replay_ms", func() (err error) {
		res, err = pg.RunArena(a, exec.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	_ = call(tr, "exec.arena_acquire_us", func() error { pg.ReleaseArena(a); return nil })
	if tr != nil {
		tr.add("exec.bytes_moved", float64(res.BytesMoved))
	}
	return res, nil
}

// checkProgram replays pg in a clean arena and checks its Measure and
// its delivery against r.
func checkProgram(r *request, pg *exec.Program) error {
	if pg.Measure() != r.want {
		return fmt.Errorf("program measure %+v, want %+v", pg.Measure(), r.want)
	}
	if !pg.Replayable() {
		if r.alg != "proposed" {
			return fmt.Errorf("program does not replay")
		}
		return nil
	}
	res, err := pg.RunArena(pg.NewArena(), exec.Options{})
	if err != nil {
		return err
	}
	if res.Measure != r.want {
		return fmt.Errorf("replay measure %+v, want %+v", res.Measure, r.want)
	}
	return verify.Delivered(r.t, res.Buffers)
}

// coldRequest serves r through a fresh memory tier over the tier-2 store
// at dir and replays the program, as one aape -progcache-dir process
// does. compiles counts the compiles it made.
func coldRequest(tr *tracer, r *request, dir string, compiles *int) (*exec.Program, error) {
	opt := exec.Options{}
	fp := progcache.Fingerprint(opt)
	key := progcache.Key(r.alg, r.t, fp)
	compile := func() (*exec.Program, error) {
		*compiles++
		var sc *schedule.Schedule
		if err := call(tr, "algorithm.build_schedule_ms", func() (err error) {
			sc, err = r.b.BuildSchedule(r.t)
			return err
		}); err != nil {
			return nil, err
		}
		var pg *exec.Program
		err := call(tr, "exec.compile_ms", func() (err error) {
			pg, err = exec.Compile(sc, opt)
			return err
		})
		return pg, err
	}
	c := progcache.New(progcache.DefaultMaxBytes)
	store, err := progcache.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	c.SetTier2(store)
	var pg *exec.Program
	if tr == nil {
		pg, err = c.GetOrCompileTiered(key, r.t, fp, nil, compile)
	} else {
		pg, err = tieredTraced(tr, c, store, key, r.t, fp, compile)
	}
	if err != nil {
		return nil, err
	}
	addMeasure(tr, pg.Measure())
	_, err = replay(tr, pg)
	return pg, err
}

// tieredTraced makes the calls Cache.GetOrCompileTiered makes for one
// uncontended request, each in its own span: memory lookup, tier-2 load,
// compile and tier-2 store on a miss, and the insert.
func tieredTraced(tr *tracer, c *progcache.Cache, store *progcache.DiskStore, key string,
	t *topology.Torus, fp uint64, compile func() (*exec.Program, error)) (*exec.Program, error) {
	var pg *exec.Program
	var ok bool
	_ = tr.span("progcache.lookup_us", func() error { pg, ok = c.Get(key); return nil })
	if ok {
		return pg, nil
	}
	_ = tr.span("progcache.tier2_load_ms", func() error { pg, ok = store.Load(key, t, fp); return nil })
	if ok {
		tr.add("progcache.tier2_hits", 1)
	} else {
		tr.add("progcache.compiles", 1)
		var err error
		if pg, err = compile(); err != nil {
			return nil, err
		}
		// The cache serves a program whose store failed; so does this.
		_ = tr.span("progcache.tier2_store_ms", func() error { return store.Store(key, pg, fp) })
	}
	tr.add("exec.program_mb", float64(pg.SizeBytes()))
	err := tr.span("progcache.lookup_us", func() error {
		_, err := c.GetOrCompile(key, func() (*exec.Program, error) { return pg, nil })
		return err
	})
	return pg, err
}

// checkStored checks that the tier-2 store at dir holds r's program and
// that it loads back.
func checkStored(r *request, dir string) error {
	store, err := progcache.NewDiskStore(dir)
	if err != nil {
		return err
	}
	fp := progcache.Fingerprint(exec.Options{})
	pg, ok := store.Load(progcache.Key(r.alg, r.t, fp), r.t, fp)
	if !ok {
		return fmt.Errorf("program not in the store")
	}
	if pg.Measure() != r.want {
		return fmt.Errorf("stored measure %+v, want %+v", pg.Measure(), r.want)
	}
	return nil
}

// coldStart is one request per (algorithm, shape) pair through a fresh
// program cache, as every aape process pays. With load unset each
// request starts from an empty tier-2 directory: it builds the schedule,
// compiles, stores, replays and checks delivery. With load set each
// request reads the directory set-up compiled into: it loads, replays
// and checks delivery.
func coldStart(cfg config, load bool) (*suite, error) {
	rs, err := newRequests(coldAlgs, requestShapes)
	if err != nil {
		return nil, err
	}
	warmups, err := newRequests(coldAlgs, [][]int{{8, 8}})
	if err != nil {
		return nil, err
	}
	// requestOp serves r through the store at dir. fromStore says whether
	// the store already holds r's program.
	requestOp := func(r *request, dir string, fromStore bool) op {
		var pg *exec.Program
		compiles := 0
		return op{
			label: r.label(),
			run: func(tr *tracer) (err error) {
				pg, err = coldRequest(tr, r, dir, &compiles)
				return err
			},
			check: func() error {
				if fromStore && compiles != 0 {
					return fmt.Errorf("compiled %d times over a warm store", compiles)
				}
				if !fromStore {
					if compiles != 1 {
						return fmt.Errorf("compiled %d times, want once", compiles)
					}
					if err := checkStored(r, dir); err != nil {
						return err
					}
				}
				return checkProgram(r, pg)
			},
		}
	}
	// serve runs every request of rs through dir untimed and checks it.
	serve := func(rs []*request, dir string) error {
		for _, r := range rs {
			o := requestOp(r, dir, false)
			if err := o.run(nil); err != nil {
				return fmt.Errorf("%s: %w", o.label, err)
			}
			if err := o.check(); err != nil {
				return fmt.Errorf("%s: %w", o.label, err)
			}
		}
		return nil
	}
	warmDir := filepath.Join(cfg.tmp, "warm")
	passDir := func(k int) string { return filepath.Join(cfg.tmp, fmt.Sprintf("pass%d", k)) }
	s := &suite{
		pass: func(k int) ([]op, error) {
			// The stores of the previous pass are checked and done with.
			if err := os.RemoveAll(passDir(k - 1)); err != nil {
				return nil, err
			}
			var ops []op
			for i, r := range shuffled(rs, cfg.seed, k) {
				if load {
					ops = append(ops, requestOp(r, warmDir, true))
				} else {
					ops = append(ops, requestOp(r, filepath.Join(passDir(k), fmt.Sprint(i)), false))
				}
			}
			return ops, nil
		},
		minPasses: 10,
	}
	if load {
		// Set-up compiles every pair into an empty store, as a prewarm
		// does; the requests then read it.
		s.setup = func() error {
			if err := os.RemoveAll(warmDir); err != nil {
				return err
			}
			return serve(rs, warmDir)
		}
		return s, nil
	}
	// Set-up serves the 8x8 pairs once through empty stores, to warm the
	// code paths and the heap.
	s.setup = func() error {
		dir := filepath.Join(cfg.tmp, "setup")
		for i, r := range warmups {
			if err := serve([]*request{r}, filepath.Join(dir, fmt.Sprint(i))); err != nil {
				return err
			}
		}
		return os.RemoveAll(dir)
	}
	return s, nil
}

// planMatrices are the traffic matrices of plan-auto pass k at 16x16,
// drawn from streams no other pass uses, so every plan misses the
// process-wide program cache.
func planMatrices(n int, seed int64, k int) []traffic.Matrix {
	s := seed*1_000_003 + int64(k)*3
	return []traffic.Matrix{
		traffic.Hotspot(n, 4, s),
		traffic.Uniform(n, 0.25, s+1),
		traffic.Permutation(n, s+2),
	}
}

// planTraced makes the calls algorithm.PlanSparse makes for a cold plan,
// each in its own span: the sparse schedule (build and prune) and the
// compile of every candidate, then the same ranking.
func planTraced(tr *tracer, t *topology.Torus, m traffic.Matrix, p costmodel.Params) (*algorithm.Plan, error) {
	plan := &algorithm.Plan{Params: p}
	programs := map[string]*exec.Program{}
	var ranked, excluded []algorithm.Score
	for _, name := range algorithm.SparseSupporting(t) {
		b, err := algorithm.For(name)
		if err != nil {
			return nil, err
		}
		var sc *schedule.Schedule
		err = tr.span("traffic.sparse_schedule_ms", func() (err error) {
			sc, err = algorithm.SparseSchedule(b, t, m)
			return err
		})
		var pg *exec.Program
		if err == nil {
			tr.add("progcache.compiles", 1)
			err = tr.span("exec.compile_ms", func() (err error) {
				pg, err = exec.Compile(sc, exec.Options{Traffic: m.Blocks()})
				return err
			})
		}
		if err != nil {
			excluded = append(excluded, algorithm.Score{Name: name, Err: err})
			continue
		}
		tr.add("exec.program_mb", float64(pg.SizeBytes()))
		ranked = append(ranked, algorithm.Score{Name: name, Measure: pg.Measure(), Completion: p.Completion(pg.Measure())})
		programs[name] = pg
	}
	if len(ranked) == 0 {
		return nil, fmt.Errorf("every candidate failed: %v", excluded)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Completion != ranked[j].Completion {
			return ranked[i].Completion < ranked[j].Completion
		}
		return ranked[i].Name < ranked[j].Name
	})
	plan.Scores = append(ranked, excluded...)
	plan.Winner = ranked[0].Name
	plan.Program = programs[plan.Winner]
	return plan, nil
}

// checkPlan checks that plan picked the cheapest candidate and that its
// program delivers exactly m.
func checkPlan(t *topology.Torus, m traffic.Matrix, plan *algorithm.Plan) error {
	if plan.Program == nil || len(plan.Scores) == 0 || plan.Scores[0].Name != plan.Winner {
		return fmt.Errorf("malformed plan")
	}
	best := plan.Scores[0]
	for _, s := range plan.Scores[1:] {
		if s.Err == nil && s.Completion < best.Completion {
			return fmt.Errorf("picked %s at %.1f us over %s at %.1f us", best.Name, best.Completion, s.Name, s.Completion)
		}
	}
	if plan.Program.Measure() != best.Measure {
		return fmt.Errorf("winner measure %+v, scored %+v", plan.Program.Measure(), best.Measure)
	}
	res, err := plan.Program.RunArena(plan.Program.NewArena(), exec.Options{})
	if err != nil {
		return err
	}
	return verify.DeliveredMatrix(t, res.Buffers, m.Blocks())
}

// planAuto plans hotspot, uniform and permutation matrices at 16x16 cold,
// as aape -alg auto does in every process: each candidate builds its
// sparse schedule and compiles. Every pass runs in a fresh process, as
// one aape process plans once: in one long-lived process the program
// cache would keep every earlier plan's candidates, a 2.7 GB peak RSS in
// a ten-second run.
func planAuto(cfg config) (*suite, error) {
	t, err := topology.New(16, 16)
	if err != nil {
		return nil, err
	}
	p := costmodel.T3D(64)
	planOp := func(m traffic.Matrix, label string) op {
		var plan *algorithm.Plan
		return op{
			label: label,
			run: func(tr *tracer) (err error) {
				if tr == nil {
					plan, err = algorithm.PlanSparse(t, m, p, exec.Options{})
				} else {
					plan, err = planTraced(tr, t, m, p)
				}
				if err == nil && tr != nil {
					addMeasure(tr, plan.Program.Measure())
				}
				return err
			},
			check: func() error { return checkPlan(t, m, plan) },
		}
	}
	kinds := []string{"hotspot", "uniform", "permutation"}
	setups := 0
	return &suite{
		// Set-up plans one hotspot matrix from a stream no pass draws
		// from, to warm the code paths and the heap.
		setup: func() error {
			setups++
			o := planOp(traffic.Hotspot(t.Nodes(), 4, -int64(setups)), "setup")
			if err := o.run(nil); err != nil {
				return err
			}
			return o.check()
		},
		pass: func(k int) ([]op, error) {
			var ops []op
			for i, m := range planMatrices(t.Nodes(), cfg.seed, k) {
				ops = append(ops, planOp(m, fmt.Sprintf("%s pass %d", kinds[i], k)))
			}
			return shuffled(ops, cfg.seed, k), nil
		},
		minPasses: 12,
		isolate:   true,
	}, nil
}

// warmReplay is torusx.Compare on every payload-carrying pair with the
// program cache warm: replay and the arena pool do the work.
func warmReplay(cfg config) (*suite, error) {
	rs, err := newRequests(warmAlgs, requestShapes)
	if err != nil {
		return nil, err
	}
	// verified holds the cached programs a clean replay has checked; a
	// request the cache serves from one of them needs only its Measure
	// checked.
	verified := map[*exec.Program]bool{}
	requestOp := func(r *request) op {
		var m costmodel.Measure
		return op{
			label: r.label(),
			run: func(tr *tracer) (err error) {
				if tr == nil {
					m, err = torusx.Compare(torusx.Algorithm(r.alg), r.dims...)
					return err
				}
				// Traced: the calls Compare makes.
				var t *topology.Torus
				var b algorithm.Builder
				if t, err = topology.New(r.dims...); err != nil {
					return err
				}
				if b, err = algorithm.For(r.alg); err != nil {
					return err
				}
				var pg *exec.Program
				compiles := algorithm.CacheStats().Compiles
				if err := tr.span("progcache.lookup_us", func() (err error) {
					pg, err = algorithm.BuildProgram(b, t, exec.Options{})
					return err
				}); err != nil {
					return err
				}
				tr.add("progcache.warm_compiles", float64(algorithm.CacheStats().Compiles-compiles))
				res, err := replay(tr, pg)
				if err != nil {
					return err
				}
				m = res.Measure
				addMeasure(tr, m)
				return nil
			},
			check: func() error {
				if m != r.want {
					return fmt.Errorf("measure %+v, want %+v", m, r.want)
				}
				pg, err := algorithm.BuildProgram(r.b, r.t, exec.Options{})
				if err != nil || verified[pg] {
					return err
				}
				verified[pg] = true
				return checkProgram(r, pg)
			},
		}
	}
	return &suite{
		// Set-up fills the process-wide program cache; a second set-up
		// would only hit it.
		once: true,
		setup: func() error {
			for _, r := range rs {
				o := requestOp(r)
				if err := o.run(nil); err != nil {
					return fmt.Errorf("%s: %w", o.label, err)
				}
				if err := o.check(); err != nil {
					return fmt.Errorf("%s: %w", o.label, err)
				}
			}
			return nil
		},
		pass: func(k int) ([]op, error) {
			var ops []op
			for _, r := range shuffled(rs, cfg.seed, k) {
				ops = append(ops, requestOp(r))
			}
			return ops, nil
		},
		minPasses: 10,
	}, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fillPayload fills b with bytes drawn from seed (splitmix64).
func fillPayload(b []byte, seed int64) {
	x := uint64(seed)
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if i+8 <= len(b) {
			binary.LittleEndian.PutUint64(b[i:], z)
		} else {
			binary.LittleEndian.PutUint64(w[:], z)
			copy(b[i:], w[:])
		}
	}
}

// exchangeData is torusx.ExchangeData on 16x16 with blockBytes per
// (source, destination) pair. The benchmark never writes into the
// output, which may alias the input. The payloads are one Go allocation,
// as a caller's would be: the collector's pacing then follows a heap of
// the payload's size.
func exchangeData(cfg config, blockBytes int) (*suite, error) {
	t, err := topology.New(16, 16)
	if err != nil {
		return nil, err
	}
	n := t.Nodes()
	total := n * n * blockBytes
	minPasses := 60
	if blockBytes > 64 {
		minPasses = 40
	}
	var (
		backing []byte
		data    [][][]byte
		crcs    []uint32
		dst     []byte
	)
	var out [][][]byte
	exchangeOp := op{
		label: fmt.Sprintf("exchange %s m=%d", shape(t.Dims()), blockBytes),
		run: func(tr *tracer) (err error) {
			if tr == nil {
				out, err = torusx.ExchangeData(t, data)
				return err
			}
			// Traced: the calls ExchangeData makes.
			var res *simchan.Result
			if err := tr.span("simchan.run_payload_ms", func() (err error) {
				res, out, err = simchan.RunPayload(t, data)
				return err
			}); err != nil {
				return err
			}
			tr.add("simchan.messages", float64(res.MessagesSent))
			err = tr.span("verify.delivered_ms", func() error { return verify.Delivered(res.Torus, res.Buffers) })
			if err != nil {
				out = nil
			}
			return err
		},
		check: func() error {
			if len(out) != n {
				return fmt.Errorf("%d output rows, want %d", len(out), n)
			}
			for i := range out {
				if len(out[i]) != n {
					return fmt.Errorf("row %d has %d payloads, want %d", i, len(out[i]), n)
				}
				for j, got := range out[i] {
					if !bytes.Equal(got, data[j][i]) || crc32.Checksum(got, castagnoli) != crcs[j*n+i] {
						return fmt.Errorf("out[%d][%d] is not data[%d][%d]", i, j, j, i)
					}
				}
			}
			out = nil
			return nil
		},
	}
	return &suite{
		// Set-up draws the payloads, records a checksum per block and
		// makes one untimed exchange.
		setup: func() error {
			if backing == nil {
				backing = make([]byte, total)
				data = make([][][]byte, n)
				for i := range data {
					data[i] = make([][]byte, n)
					for j := range data[i] {
						off := (i*n + j) * blockBytes
						data[i][j] = backing[off : off+blockBytes : off+blockBytes]
					}
				}
				crcs = make([]uint32, n*n)
			}
			fillPayload(backing, cfg.seed)
			for i := range data {
				for j, b := range data[i] {
					crcs[i*n+j] = crc32.Checksum(b, castagnoli)
				}
			}
			if err := exchangeOp.run(nil); err != nil {
				return err
			}
			return exchangeOp.check()
		},
		pass: func(int) ([]op, error) { return []op{exchangeOp}, nil },
		// One request per pass: about 50 fit in ten seconds at 8 KiB
		// blocks and 80 at 64 B.
		minPasses: minPasses,
		floor: func() float64 {
			if dst == nil {
				dst = make([]byte, total)
				copy(dst, backing) // fault the pages in before timing
			}
			start := time.Now()
			copy(dst, backing)
			return float64(total) / time.Since(start).Seconds() / 1e9
		},
		payloadBytes: int64(total),
		// close hands the payloads back to the OS, so that the next run
		// in a test process starts from a similar footprint.
		close: func() {
			backing, data, dst, out = nil, nil, nil, nil
			debug.FreeOSMemory()
		},
	}, nil
}

// The obs layer's zero-cost-when-disabled guard, holding request
// tracing to the same bar PR 3 set for telemetry: a compiled replay
// with Options.Request nil must allocate exactly what it allocated
// before the layer existed and must not be measurably slower than a
// replay recording live spans (which does strictly more work) —
// plus the determinism contract: histograms exported from independent
// replay sweeps match exactly.
package exec_test

import (
	"testing"
	"time"

	"torusx/internal/baseline"
	"torusx/internal/exec"
	"torusx/internal/obs"
	"torusx/internal/topology"
)

func compileDirect8x8(t testing.TB) *exec.Program {
	t.Helper()
	tor := topology.MustNew(8, 8)
	pg, err := exec.Compile(baseline.DirectSchedule(tor), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// TestObsDisabledAllocsUnchanged pins the structural half: a compiled
// replay with an explicitly nil Request allocates exactly the same
// count as one that never mentions the field.
func TestObsDisabledAllocsUnchanged(t *testing.T) {
	pg := compileDirect8x8(t)
	arena := pg.NewArena()
	run := func(o exec.Options) {
		if _, err := pg.RunArena(arena, o); err != nil {
			t.Fatal(err)
		}
	}
	run(exec.Options{}) // warm the arena
	baseline := testing.AllocsPerRun(10, func() { run(exec.Options{}) })
	var req *obs.Request
	optNil := exec.Options{Request: req}
	withNil := testing.AllocsPerRun(10, func() { run(optNil) })
	if withNil != baseline {
		t.Errorf("nil-request replay allocates %v, plain replay %v", withNil, baseline)
	}
}

// TestObsDisabledNotSlowerThanEnabled is the temporal half, mirroring
// TestTelemetryDisabledNotSlowerThanNop's shape and headroom.
func TestObsDisabledNotSlowerThanEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	pg := compileDirect8x8(t)
	arena := pg.NewArena()
	reg := obs.NewRegistry()
	measure := func(mk func() exec.Options) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			opt := mk()
			start := time.Now()
			if _, err := pg.RunArena(arena, opt); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			opt.Request.Finish()
		}
		return best
	}
	measure(func() exec.Options { return exec.Options{} }) // warm up
	disabled := measure(func() exec.Options { return exec.Options{} })
	enabled := measure(func() exec.Options {
		return exec.Options{Request: reg.StartRequest("guard")}
	})
	if float64(disabled) > 2*float64(enabled)+float64(2*time.Millisecond) {
		t.Errorf("disabled obs slower than span-enabled: %v vs %v", disabled, enabled)
	}
	t.Logf("8x8 direct compiled replay: disabled %v, span-enabled %v", disabled, enabled)
}

// TestObsHistogramDeterministicAcrossExecutors pins the export
// contract: two independent sweeps of N replays of one program — one
// on a pooled arena, one on a fresh arena per run — feed identical
// histogram *shapes* — same metric names, same counts — because a
// request's stage set depends only on the pipeline walked, never on
// the arena behind it, and the histogram's bucketing is a pure
// function of each observed value.
func TestObsHistogramDeterministicAcrossExecutors(t *testing.T) {
	pg := compileDirect8x8(t)
	const runs = 16
	sweep := func(pooled bool) *obs.Registry {
		reg := obs.NewRegistry()
		arena := pg.AcquireArena()
		defer pg.ReleaseArena(arena)
		for i := 0; i < runs; i++ {
			if !pooled {
				arena = pg.NewArena()
			}
			req := reg.StartRequest("det")
			if _, err := pg.RunArena(arena, exec.Options{Request: req}); err != nil {
				t.Fatal(err)
			}
			req.Finish()
		}
		return reg
	}
	for _, pooled := range []bool{true, false} {
		reg := sweep(pooled)
		s := reg.Snapshot()
		h, ok := s.Hists["stage.replay.ns"]
		if !ok {
			t.Fatalf("pooled=%v: no stage.replay.ns histogram; have %v", pooled, s.Hists)
		}
		if h.Count != runs {
			t.Errorf("pooled=%v: replay stage count = %d, want %d", pooled, h.Count, runs)
		}
		var sum int64
		for _, b := range h.Buckets {
			sum += b
		}
		if sum != h.Count {
			t.Errorf("pooled=%v: bucket sum %d != count %d", pooled, sum, h.Count)
		}
		if rh, ok := s.Hists["req.det.ns"]; !ok || rh.Count != runs {
			t.Errorf("pooled=%v: request histogram = %+v, want count %d", pooled, rh, runs)
		}
	}
}

func BenchmarkExecObsDisabled(b *testing.B) {
	pg := compileDirect8x8(b)
	arena := pg.NewArena()
	var opt exec.Options
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pg.RunArena(arena, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecObsEnabled(b *testing.B) {
	pg := compileDirect8x8(b)
	arena := pg.NewArena()
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reg.StartRequest("bench")
		if _, err := pg.RunArena(arena, exec.Options{Request: req}); err != nil {
			b.Fatal(err)
		}
		req.Finish()
	}
}

package exec_test

import (
	"runtime"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/baseline"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

// TestCompiledReplayAllocs is the allocation regression gate of the
// compile-once/replay-many design: a steady-state replay on a reused
// arena must allocate (nearly) nothing — one Result header, and zero
// per-block, per-transfer or per-link garbage. The map-based executor
// it replaced allocated tens of thousands of objects per run on these
// schedules (see EXPERIMENTS.md); a regression here silently
// re-introduces that cost into every benchmark sweep, so the bound is
// pinned hard: the Result header is the only allocation.
func TestCompiledReplayAllocs(t *testing.T) {
	const maxReplayAllocs = 1
	tor := topology.MustNew(8, 8)
	for _, alg := range []string{"proposed", "direct", "ring"} {
		t.Run(alg, func(t *testing.T) {
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := exec.Compile(sc, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			arena := pg.NewArena()
			// Warm once: the first run materializes the reusable delivery
			// buffers.
			if _, err := pg.RunArena(arena, exec.Options{}); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := pg.RunArena(arena, exec.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > maxReplayAllocs {
				t.Errorf("%v allocs per replay, want <= %v", allocs, maxReplayAllocs)
			}
		})
	}
}

// TestCompileMemoryBoundedByProgram is the planner's memory gate: a
// cold Compile of ring 16x16 — whose ~983k payload entries dwarf its
// ~31k descriptors — must allocate less than compileAllocFactor times
// the program it returns (SizeBytes, ~5.0 MB). Scratch sized by the
// payload rather than by the descriptors emitted (a 16-byte descriptor
// slot per payload entry is 15.7 MB on its own) breaks the bound. Two
// GCs first empty the sync.Pool-held scratch, so the compile allocates
// all of it afresh.
func TestCompileMemoryBoundedByProgram(t *testing.T) {
	const compileAllocFactor = 3
	sc := baseline.RingSchedule(topology.MustNew(16, 16))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pg, err := exec.Compile(sc, exec.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, size := after.TotalAlloc-before.TotalAlloc, uint64(pg.SizeBytes())
	if alloc >= compileAllocFactor*size {
		t.Errorf("Compile allocated %.1f MB for a %.1f MB program (%.2fx), want < %dx",
			float64(alloc)/1e6, float64(size)/1e6, float64(alloc)/float64(size), compileAllocFactor)
	}
	t.Logf("Compile allocated %.1f MB for a %.1f MB program (%.2fx)",
		float64(alloc)/1e6, float64(size)/1e6, float64(alloc)/float64(size))
}

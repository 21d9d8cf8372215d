package algorithm_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// plannerFabrics is the differential grid's fabric axis: square and
// rectangular 2D tori, a 3D torus, and a dragonfly, so the candidate
// sets differ per row (factored drops out on odd-free shapes only,
// dimexchange only exists on the dragonfly).
func plannerFabrics() []topology.Fabric {
	return []topology.Fabric{
		topology.MustNew(8, 8),
		topology.MustNew(4, 4, 4),
		topology.MustNew(12, 8),
		topology.MustNewDragonfly(2, 4),
	}
}

// plannerMatrices is the generator axis: sparse uniform, neighbor
// ring, hotspot/incast, and a permutation — the same canned mix the
// CLI tools expose.
func plannerMatrices(n int) []traffic.Matrix {
	return []traffic.Matrix{
		traffic.Uniform(n, 0.15, 7),
		traffic.Ring(n, 1),
		traffic.Hotspot(n, 2, 7),
		traffic.Permutation(n, 7),
	}
}

// checkExactDelivery proves the replayed buffers are exactly the
// matrix: every block sits at its destination, belongs to m, and the
// total count matches — nothing dropped, nothing invented.
func checkExactDelivery(t *testing.T, name string, m traffic.Matrix, bufs []*block.Buffer) {
	t.Helper()
	total := 0
	for v, buf := range bufs {
		for _, b := range buf.View() {
			if int(b.Dest) != v {
				t.Fatalf("%s: node %d holds misdelivered block %v", name, v, b)
			}
			if !m.Contains(b) {
				t.Fatalf("%s: node %d holds block %v outside the matrix", name, v, b)
			}
		}
		total += buf.Len()
	}
	if total != m.Len() {
		t.Fatalf("%s: delivered %d blocks, matrix has %d", name, total, m.Len())
	}
}

// TestPlannerDifferential is the planner's differential wall, run
// under -race in CI: for every (fabric, generator) cell it replays the
// planner's pick AND every supporting candidate on the compiled
// executor, requiring exact delivery, buffers identical to the
// Reference oracle's, scores that match the replayed measures, measures at or above the sparse
// cost floor, and a pick whose measured completion is within the
// model-error budget of the best candidate.
func TestPlannerDifferential(t *testing.T) {
	p := costmodel.T3D(64)
	for _, f := range plannerFabrics() {
		for mi, m := range plannerMatrices(f.Nodes()) {
			f, mi, m := f, mi, m
			t.Run(fmt.Sprintf("%s/gen%d", f.Fingerprint(), mi), func(t *testing.T) {
				t.Parallel()
				plan, err := algorithm.PlanSparse(f, m, p, exec.Options{})
				if err != nil {
					t.Fatalf("plan %s on %s: %v", m, f.Fingerprint(), err)
				}
				floor := costmodel.SparseFloor(m.OutDegrees(), m.InDegrees())
				best := math.Inf(1)
				pick := math.Inf(1)
				ran := 0
				for _, s := range plan.Scores {
					if s.Err != nil {
						continue
					}
					b, err := algorithm.For(s.Name)
					if err != nil {
						t.Fatal(err)
					}
					pg, err := algorithm.BuildSparseProgram(b, f, m, exec.Options{})
					if err != nil {
						t.Fatalf("%s: scored without error but did not build: %v", s.Name, err)
					}
					res, err := pg.Run(exec.Options{})
					if err != nil {
						t.Fatalf("%s: replay: %v", s.Name, err)
					}
					if !res.Replayed {
						t.Fatalf("%s: sparse replay was structural-only", s.Name)
					}
					checkExactDelivery(t, s.Name, m, res.Buffers)
					ref, err := exec.Reference(pg.Schedule(), exec.Options{Traffic: m.Blocks()})
					if err != nil {
						t.Fatalf("%s: Reference: %v", s.Name, err)
					}
					for v := range ref.Buffers {
						if !slices.Equal(ref.Buffers[v].View(), res.Buffers[v].View()) {
							t.Fatalf("%s: node %d delivery differs from the Reference:\nreference: %v\ncompiled:  %v",
								s.Name, v, ref.Buffers[v].View(), res.Buffers[v].View())
						}
					}
					if res.Measure != s.Measure {
						t.Fatalf("%s: replayed measure %+v differs from planner score %+v", s.Name, res.Measure, s.Measure)
					}
					if res.Measure.Blocks < floor {
						t.Fatalf("%s: measured %d blocks below the sparse floor %d", s.Name, res.Measure.Blocks, floor)
					}
					c := p.Completion(res.Measure)
					if c < best {
						best = c
					}
					if s.Name == plan.Winner {
						pick = c
					}
					ran++
				}
				if ran == 0 {
					t.Fatalf("no candidate replayed on %s", f.Fingerprint())
				}
				if pick > best*(1+costmodel.PlannerModelError) {
					t.Fatalf("pick %s costs %.3f, best candidate costs %.3f: outside the %.0f%% model-error budget",
						plan.Winner, pick, best, 100*costmodel.PlannerModelError)
				}
			})
		}
	}
}

// TestPlannerSerialParallelDeterminism re-plans and replays the
// planner pick many times on one shared arena, proving the pick itself
// is stable and its delivery exact on every repeated replay — the
// property the CI race job leans on.
func TestPlannerSerialParallelDeterminism(t *testing.T) {
	f := topology.MustNew(8, 8)
	m := traffic.Uniform(f.Nodes(), 0.2, 11)
	p := costmodel.T3D(64)
	first, err := algorithm.PlanSparse(f, m, p, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := first.Program.AcquireArena()
	defer first.Program.ReleaseArena(a)
	var want [][]block.Block // run 0's delivery, copied out of the arena
	for i := 0; i < 8; i++ {
		plan, err := algorithm.PlanSparse(f, m, p, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Winner != first.Winner {
			t.Fatalf("run %d: winner flipped %s -> %s", i, first.Winner, plan.Winner)
		}
		if plan.Program != first.Program {
			t.Fatalf("run %d: re-planning recompiled the winner instead of hitting the program cache", i)
		}
		res, err := first.Program.RunArena(a, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkExactDelivery(t, fmt.Sprintf("run%d", i), m, res.Buffers)
		if want == nil {
			for _, buf := range res.Buffers {
				want = append(want, buf.All())
			}
			continue
		}
		for v, buf := range res.Buffers {
			if !slices.Equal(buf.View(), want[v]) {
				t.Fatalf("run %d: node %d delivery differs from run 0", i, v)
			}
		}
	}
}

// TestSparseProgramCacheKeySeparation proves the traffic fingerprint
// folded into the program-cache key actually separates matrices: two
// different matrices on the same (builder, fabric) never share a
// compiled program, while the same matrix built twice does.
func TestSparseProgramCacheKeySeparation(t *testing.T) {
	f := topology.MustNew(8, 8)
	b, err := algorithm.For("direct")
	if err != nil {
		t.Fatal(err)
	}
	m1 := traffic.Permutation(f.Nodes(), 1)
	m2 := traffic.Permutation(f.Nodes(), 2)
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Fatalf("distinct permutations share fingerprint %x", m1.Fingerprint())
	}
	p1, err := algorithm.BuildSparseProgram(b, f, m1, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := algorithm.BuildSparseProgram(b, f, m2, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("distinct matrices shared one cached program")
	}
	again, err := algorithm.BuildSparseProgram(b, f, m1, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again != p1 {
		t.Fatal("identical matrix missed the program cache")
	}
	// The dense program for the same (builder, fabric) is yet another
	// cache line: sparse builds must never alias it.
	dense, err := algorithm.BuildProgram(b, f, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dense == p1 || dense == p2 {
		t.Fatal("sparse program aliased the dense cache line")
	}
	r1, err := p1.Run(exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkExactDelivery(t, "m1", m1, r1.Buffers)
}

// The descriptor-replay differential layer: a compiled program's
// descriptor plan — the ρ-rewrite elisions, the strided gathers, the
// direct last-hop deliveries — must be observably indistinguishable
// from the Reference oracle, on every (fabric, algorithm) pair the
// registry supports, through RunArena and through ReplayInto's
// caller-owned destination buffers.
package exec_test

import (
	"fmt"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// descriptorFabrics spans the registry smoke's shapes plus asymmetric
// and virtual-node (size-1 dimension) tori.
func descriptorFabrics() []topology.Fabric {
	return []topology.Fabric{
		topology.MustNew(8, 8),
		topology.MustNew(4, 4, 4),
		topology.MustNew(12, 8),
		topology.MustNew(5, 3),
		topology.MustNew(2, 1, 4),
		topology.MustNewDragonfly(2, 3),
		topology.MustNewDragonfly(3, 4),
	}
}

// flatIDs renders a delivery matrix as the dense-id layout ReplayInto
// writes: node v's blocks at [DeliveryOffset(v), DeliveryOffset(v+1)).
func flatIDs(bufs []*block.Buffer) []int32 {
	n := len(bufs)
	var out []int32
	for _, b := range bufs {
		for _, blk := range b.View() {
			out = append(out, int32(int(blk.Origin)*n+int(blk.Dest)))
		}
	}
	return out
}

func sameIDs(t *testing.T, label string, want, got []int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d ids, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: id[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestDescriptorDifferentialReplay is the descriptor plan's contract:
// on every supported (fabric, algorithm) registry pair, descriptor
// replay — first and repeated runs on one arena — must deliver
// byte-identically to the Reference oracle, the plan must pass its static invariants, and
// ReplayInto must write the same ids into a caller-owned buffer. Runs
// under -race in CI's differential job.
func TestDescriptorDifferentialReplay(t *testing.T) {
	for _, fab := range descriptorFabrics() {
		for _, name := range algorithm.Supporting(fab) {
			t.Run(fmt.Sprintf("%s@%s", name, fab), func(t *testing.T) {
				b, err := algorithm.For(name)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := b.BuildSchedule(fab)
				if err != nil {
					t.Skipf("builder: %v", err)
				}
				ref, err := exec.Reference(sc, exec.Options{})
				if err != nil {
					t.Fatal(err)
				}
				pg, err := exec.Compile(sc, exec.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := exec.CheckDescriptorPlan(pg); err != nil {
					t.Fatalf("descriptor plan: %v", err)
				}
				arena := pg.NewArena()
				for _, label := range []string{"desc-first", "desc-repeat"} {
					got, err := pg.RunArena(arena, exec.Options{})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got.Measure != ref.Measure || got.MaxSharing != ref.MaxSharing || got.Replayed != ref.Replayed {
						t.Fatalf("%s: Measure %+v sharing %d replayed %v, want %+v %d %v", label,
							got.Measure, got.MaxSharing, got.Replayed, ref.Measure, ref.MaxSharing, ref.Replayed)
					}
					sameBuffers(t, ref.Buffers, got.Buffers)
				}
				if !ref.Replayed {
					return // structural program: no deliveries to compare
				}
				refIDs := flatIDs(ref.Buffers)
				// ReplayInto: user-owned destination, first and repeated
				// runs, same ids.
				dst := make([]int32, pg.DeliverySize())
				for _, label := range []string{"into-first", "into-repeat"} {
					for i := range dst {
						dst[i] = -1
					}
					if err := pg.ReplayInto(arena, dst); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameIDs(t, label, refIDs, dst)
				}
				// A replay after ReplayInto must still be clean: the direct
				// deliveries bypassed the arena, not corrupted it.
				again, err := pg.RunArena(arena, exec.Options{})
				if err != nil {
					t.Fatalf("replay after ReplayInto: %v", err)
				}
				sameBuffers(t, ref.Buffers, again.Buffers)
			})
		}
	}
}

// rhoRingSchedule hand-builds the schedule shape the registry's
// builders only annotate: an explicit ρ phase of multi-block
// self-transfers (every node reverses its buffer — a pure intra-node
// permutation, one negative-stride descriptor) followed by a ring
// exchange that forwards the permuted blocks to their destinations.
// The reversal is exactly the case the ρ elision targets: payLen 8
// against a single descriptor, so costmodel.RewriteWins prices the
// descriptor rewrite below the bulk copy.
func rhoRingSchedule(t *testing.T) *schedule.Schedule {
	t.Helper()
	tor := topology.MustNew(8)
	n := tor.Nodes()
	bufs := block.Initial(tor)
	sc := &schedule.Schedule{Fabric: tor}

	rho := schedule.Phase{Name: "rho"}
	st := schedule.Step{}
	for i := 0; i < n; i++ {
		taken, _ := bufs[i].TakeIf(func(block.Block) bool { return true })
		rev := make([]block.Block, len(taken))
		for j, b := range taken {
			rev[len(taken)-1-j] = b
		}
		bufs[i].Add(rev...)
		st.Transfers = append(st.Transfers, schedule.Transfer{
			Src: topology.NodeID(i), Dst: topology.NodeID(i),
			Dim: 0, Dir: topology.Pos, Hops: 0,
			Blocks: len(rev), Payload: rev,
		})
	}
	rho.Steps = append(rho.Steps, st)
	sc.Phases = append(sc.Phases, rho)

	ring := schedule.Phase{Name: "ring"}
	for k := 0; k < n-1; k++ {
		st := schedule.Step{}
		moved := make([][]block.Block, n)
		for i := 0; i < n; i++ {
			taken, _ := bufs[i].TakeIf(func(b block.Block) bool { return int(b.Dest) != i })
			if len(taken) == 0 {
				continue
			}
			dst := topology.NodeID((i + 1) % n)
			moved[dst] = taken
			st.Transfers = append(st.Transfers, schedule.Transfer{
				Src: topology.NodeID(i), Dst: dst,
				Dim: 0, Dir: topology.Pos, Hops: 1,
				Blocks: len(taken), Payload: taken,
			})
		}
		for j, bs := range moved {
			if bs != nil {
				bufs[j].Add(bs...)
			}
		}
		if len(st.Transfers) > 0 {
			ring.Steps = append(ring.Steps, st)
		}
	}
	sc.Phases = append(sc.Phases, ring)
	if err := sc.Check(); err != nil {
		t.Fatalf("rho-ring schedule invalid: %v", err)
	}
	return sc
}

// TestDescriptorRhoElision proves the ρ-rewrite path end to end: on a
// schedule with explicit rearrangement self-transfers, the planner
// must elide every one of them (recording the wins in the phase
// ledger), descriptor replay must still deliver byte-identically to
// the Reference oracle on every path, and the elided ρ phase must copy
// no bytes at all.
func TestDescriptorRhoElision(t *testing.T) {
	sc := rhoRingSchedule(t)
	ref, err := exec.Reference(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.CheckDescriptorPlan(pg); err != nil {
		t.Fatalf("descriptor plan: %v", err)
	}
	st := pg.Stats()
	if st.Rewrites != 8 {
		t.Fatalf("rewrites %d, want 8 (one elided reversal per node); stats %+v", st.Rewrites, st)
	}
	if pg.RewriteRatio() <= 0 {
		t.Fatalf("rewrite ratio %v, want > 0", pg.RewriteRatio())
	}
	// Every ring transfer is one gather of its payload; the elided ρ
	// reversals add nothing on top.
	var ringBytes int64
	for _, st := range sc.Phases[1].Steps {
		for _, tr := range st.Transfers {
			ringBytes += 4 * int64(len(tr.Payload))
		}
	}
	if pg.BytesMoved() != ringBytes {
		t.Fatalf("replay moves %d bytes, want %d (the ring gathers alone) — the ρ phase was not elided",
			pg.BytesMoved(), ringBytes)
	}
	arena := pg.NewArena()
	got, err := pg.RunArena(arena, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameBuffers(t, ref.Buffers, got.Buffers)
	dst := make([]int32, pg.DeliverySize())
	if err := pg.ReplayInto(arena, dst); err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "replay-into", flatIDs(ref.Buffers), dst)
}

// TestReplayIntoZeroAlloc pins the acceptance bar for user-owned
// destination buffers: a warm ReplayInto performs zero allocations on
// every payload-carrying registry program at 8x8 — rewrite-only ones
// (every executed transfer delivers directly, as in the single-phase
// direct exchange) and ones that gather through the arena log alike.
func TestReplayIntoZeroAlloc(t *testing.T) {
	tor := topology.MustNew(8, 8)
	for _, name := range []string{"proposed-sim", "direct", "ring", "factored", "logtime"} {
		t.Run(name, func(t *testing.T) {
			b, err := algorithm.For(name)
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
			if !pg.Replayable() {
				t.Fatalf("%s@8x8 carries no payloads", name)
			}
			arena := pg.NewArena()
			dst := make([]int32, pg.DeliverySize())
			if err := pg.ReplayInto(arena, dst); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := pg.ReplayInto(arena, dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm ReplayInto allocates %.0f objects/op, want 0 (rewrite-only: %v)",
					allocs, pg.Stats().RewriteOnly)
			}
		})
	}
}

// TestBytesMovedMatchesTelemetry: the Program.BytesMoved accessor, the
// run Result, and the telemetry stream's exec.bytes_moved counter must
// agree — one number, reported identically through every surface.
func TestBytesMovedMatchesTelemetry(t *testing.T) {
	tor := topology.MustNew(8, 8)
	for _, name := range []string{"direct", "factored", "proposed-sim"} {
		b, err := algorithm.For(name)
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
		want := pg.BytesMoved()
		sink := &telemetry.MemorySink{}
		rec := telemetry.New(sink, costmodel.T3D(64))
		res, err := pg.Run(exec.Options{Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		if res.BytesMoved != want {
			t.Fatalf("%s: Result.BytesMoved %d, accessor %d", name, res.BytesMoved, want)
		}
		found := false
		for _, ev := range sink.Events() {
			if ev.Kind == telemetry.CounterKind && ev.Name == "exec.bytes_moved" {
				found = true
				if ev.Value != float64(want) {
					t.Fatalf("%s: telemetry bytes_moved %v, accessor %d", name, ev.Value, want)
				}
			}
		}
		if !found {
			t.Fatalf("%s: no exec.bytes_moved counter in the stream", name)
		}
	}
}

// TestDescriptorBytesGate is the machine-independent half of the perf
// acceptance: on the multi-phase rearranging algorithms the bytes one
// replay physically copies, and the share of payload transfers elided
// to descriptor rewrites, are pinned to exact values at 8x8 and 16x16.
// Both are deterministic plan properties, so this gate never flakes
// across hosts; a change here means the descriptor planner changed.
func TestDescriptorBytesGate(t *testing.T) {
	want := map[string]int64{"8x8": 49152, "16x16": 1048576}
	for _, name := range []string{"factored", "logtime"} {
		for _, dims := range [][]int{{8, 8}, {16, 16}} {
			b, err := algorithm.For(name)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(topology.MustNew(dims...))
			if err != nil {
				t.Fatal(err)
			}
			pg, err := exec.Compile(sc, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			shape := fmt.Sprintf("%dx%d", dims[0], dims[1])
			if got := pg.BytesMoved(); got != want[shape] {
				t.Errorf("%s@%s: replay moves %d bytes, want %d", name, shape, got, want[shape])
			}
			if r := pg.RewriteRatio(); r != 0 {
				t.Errorf("%s@%s: rewrite ratio %.2f, want 0.00", name, shape, r)
			}
			t.Logf("%s@%s: %d bytes, rewrite ratio %.2f", name, shape, pg.BytesMoved(), pg.RewriteRatio())
		}
	}
}

// Differential coverage for the compiled fast path: a compiled
// Program's replay — fresh arena or reused — must be
// indistinguishable from the Reference oracle: identical
// Measure counters, identical MaxSharing, identical delivery matrices
// (same blocks, same buffer order), identical canonical telemetry
// streams. This is the contract that lets the command-line tools and
// torusx.Compare route everything through Compile.
package exec_test

import (
	"fmt"
	"reflect"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// TestCompiledDifferentialRegistryAlgorithms: every Builder in the
// registry, on 8x8, 4x4x4 and 12x8, compiled once and replayed on
// fresh arenas and repeatedly on a reused one, must match the
// Reference oracle exactly.
func TestCompiledDifferentialRegistryAlgorithms(t *testing.T) {
	for _, name := range algorithm.Names() {
		for _, dims := range differentialShapes {
			t.Run(shapeName(name, dims), func(t *testing.T) {
				b, err := algorithm.For(name)
				if err != nil {
					t.Fatal(err)
				}
				tor := topology.MustNew(dims...)
				sc, err := b.BuildSchedule(tor)
				if err != nil {
					t.Skipf("builder: %v", err)
				}
				ref, err := exec.Reference(sc, exec.Options{})
				if err != nil {
					t.Fatal(err)
				}
				pg, err := exec.Compile(sc, exec.Options{})
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				arena := pg.NewArena()
				runs := []struct {
					label string
					run   func() (*exec.Result, error)
				}{
					{"run-1", func() (*exec.Result, error) { return pg.Run(exec.Options{}) }},
					{"run-2", func() (*exec.Result, error) { return pg.Run(exec.Options{}) }},
					{"arena-1", func() (*exec.Result, error) { return pg.RunArena(arena, exec.Options{}) }},
					// Replays 2..3 on the same arena: the rewritten log
					// windows and the reused delivery buffers must not leak
					// state between runs.
					{"arena-2", func() (*exec.Result, error) { return pg.RunArena(arena, exec.Options{}) }},
					{"arena-3", func() (*exec.Result, error) { return pg.RunArena(arena, exec.Options{}) }},
				}
				for _, r := range runs {
					got, err := r.run()
					if err != nil {
						t.Fatalf("%s: %v", r.label, err)
					}
					if got.Measure != ref.Measure {
						t.Errorf("%s: Measure %+v, want %+v", r.label, got.Measure, ref.Measure)
					}
					if got.MaxSharing != ref.MaxSharing {
						t.Errorf("%s: MaxSharing %d, want %d", r.label, got.MaxSharing, ref.MaxSharing)
					}
					if got.Replayed != ref.Replayed {
						t.Errorf("%s: Replayed %v, want %v", r.label, got.Replayed, ref.Replayed)
					}
					sameBuffers(t, ref.Buffers, got.Buffers)
				}
			})
		}
	}
}

// TestCompiledDifferentialTelemetry: a compiled run's telemetry stream
// must be canonically identical to the Reference oracle's —
// the post-pass reads precomputed sharing factors and dense link ids,
// and this pins that those shortcuts change nothing observable.
func TestCompiledDifferentialTelemetry(t *testing.T) {
	for _, alg := range []string{"proposed", "direct", "ring"} {
		for _, dims := range telemetryShapes {
			dims := dims
			t.Run(alg+"/"+topology.MustNew(dims...).String(), func(t *testing.T) {
				ref := recordRun(t, alg, dims, true)
				if len(ref) == 0 {
					t.Fatal("reference run emitted nothing")
				}
				tor := topology.MustNew(dims...)
				b, err := algorithm.For(alg)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := b.BuildSchedule(tor)
				if err != nil {
					t.Skipf("builder: %v", err)
				}
				pg, err := exec.Compile(sc, exec.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sink := &telemetry.MemorySink{}
				rec := telemetry.New(sink, costmodel.T3D(64))
				if _, err := pg.Run(exec.Options{Telemetry: rec}); err != nil {
					t.Fatal(err)
				}
				compiled := dropCompiledOnlyEvents(sink.Events())
				if len(compiled) != len(ref) {
					t.Fatalf("%d events vs reference's %d", len(compiled), len(ref))
				}
				want, got := telemetry.Canonical(ref), telemetry.Canonical(compiled)
				if !reflect.DeepEqual(want, got) {
					for i := range want {
						if !reflect.DeepEqual(want[i], got[i]) {
							t.Fatalf("canonical streams diverge at %d:\n reference %+v\n compiled  %+v",
								i, want[i], got[i])
						}
					}
					t.Fatal("canonical streams diverge")
				}
			})
		}
	}
}

// dropCompiledOnlyEvents filters the counters only compiled programs
// emit — the descriptor plan's per-phase rewrite/copy ledger and the
// bytes-moved total — so a compiled stream compares against the
// Reference on the events both paths produce.
func dropCompiledOnlyEvents(evs []telemetry.Event) []telemetry.Event {
	out := evs[:0]
	for _, ev := range evs {
		switch ev.Name {
		case "phase.rewrites", "phase.copies", "exec.bytes_moved":
			continue
		}
		out = append(out, ev)
	}
	return out
}

// TestCompiledDifferentialRejects: schedules the Reference executor
// rejects must be rejected by Compile, with the same error type and
// message (both reuse schedule's error types and CheckStep's check
// order).
func TestCompiledDifferentialRejects(t *testing.T) {
	tor := topology.MustNew(4, 4)
	cases := []struct {
		name string
		sc   *schedule.Schedule
	}{
		{"one-port", &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
			Name: "bad",
			Steps: []schedule.Step{{Transfers: []schedule.Transfer{
				{Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1},
				{Src: 0, Dst: 2, Dim: 1, Dir: topology.Pos, Hops: 1, Blocks: 1},
			}}},
		}}}},
		// Nodes 0, 4, 8, 12 form a dim-0 row of the 4x4 torus; the two
		// overlapping 2-hop sends share the link out of node 4.
		{"contention", &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
			Name: "bad",
			Steps: []schedule.Step{{Transfers: []schedule.Transfer{
				{Src: 0, Dst: 8, Dim: 0, Dir: topology.Pos, Hops: 2, Blocks: 1},
				{Src: 4, Dst: 12, Dim: 0, Dir: topology.Pos, Hops: 2, Blocks: 1},
			}}},
		}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, refErr := exec.Reference(tc.sc, exec.Options{})
			_, cErr := exec.Compile(tc.sc, exec.Options{})
			if refErr == nil || cErr == nil {
				t.Fatalf("accepted: reference=%v compiled=%v", refErr, cErr)
			}
			if refErr.Error() != cErr.Error() {
				t.Errorf("error mismatch:\nreference: %v\ncompiled:  %v", refErr, cErr)
			}
			// SkipChecks must let the same schedule through to the replay
			// layer on both paths (structural here, so both accept).
			if _, err := exec.Compile(tc.sc, exec.Options{SkipChecks: true}); err != nil {
				t.Errorf("SkipChecks compile: %v", err)
			}
		})
	}
}

// TestCompileDeliveryRejects pins Compile's delivery checks: a
// schedule that leaves a node with the wrong block count, or with the
// right count but a block addressed elsewhere, fails to compile with
// the count or misdelivery error — the lowest node first and, within a
// node, its earliest-arriving stray block. The Reference
// reference rejects both schedules too.
func TestCompileDeliveryRejects(t *testing.T) {
	tor := topology.MustNew(4)
	// One ρ-style self-transfer at node 2 makes the program replayable;
	// every other block stays where the matrix put it.
	b22 := block.Block{Origin: 2, Dest: 2}
	sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
		Name: "rho",
		Steps: []schedule.Step{{Transfers: []schedule.Transfer{
			{Src: 2, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 0, Blocks: 1, Payload: []block.Block{b22}},
		}}},
	}}}
	cases := []struct {
		name    string
		traffic []block.Block
		want    string
	}{
		{"count", []block.Block{b22, {Origin: 0, Dest: 1}},
			"exec: node 0 holds 1 blocks after replay, want 0"},
		// Node 0 holds its two blocks' worth, but both are its own
		// outgoing ones; (0,3) arrived first (matrix order).
		{"misdelivered", []block.Block{b22, {Origin: 1, Dest: 0}, {Origin: 3, Dest: 0}, {Origin: 0, Dest: 3}, {Origin: 0, Dest: 1}},
			fmt.Sprintf("exec: node 0 holds misdelivered block %v", block.Block{Origin: 0, Dest: 3})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := exec.Compile(sc, exec.Options{Traffic: tc.traffic})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Compile error %v, want %q", err, tc.want)
			}
			if _, err := exec.Reference(sc, exec.Options{Traffic: tc.traffic}); err == nil {
				t.Fatal("Reference accepted the schedule")
			}
		})
	}
}

// TestCompiledSparseTraffic covers the compiled declared-traffic path.
func TestCompiledSparseTraffic(t *testing.T) {
	tor := topology.MustNew(8, 8)
	b, err := algorithm.For("proposed-sim")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	traffic := exec.FullTraffic(tor)
	ref, err := exec.Reference(sc, exec.Options{Traffic: traffic})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{Traffic: traffic})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pg.Run(exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Measure != ref.Measure {
		t.Errorf("Measure differs: %+v vs %+v", got.Measure, ref.Measure)
	}
	sameBuffers(t, ref.Buffers, got.Buffers)
}

// TestIntraStepForwardingVerdicts pins the executor's verdict on a
// schedule where a transfer forwards a block delivered earlier in the
// same step: node 0 sends B[0,2] to node 1, and node 1 forwards it to
// node 2 within one step. The compiled replay runs a step's transfers
// in schedule order, as the Reference does, so the compiled run, the
// one-shot exec.Run and the Reference all accept the schedule and
// deliver identical buffers.
func TestIntraStepForwardingVerdicts(t *testing.T) {
	tor := topology.MustNew(4)
	b02 := block.Block{Origin: 0, Dest: 2}
	sc := &schedule.Schedule{
		Fabric: tor,
		Phases: []schedule.Phase{{
			Name: "p",
			Steps: []schedule.Step{{
				Transfers: []schedule.Transfer{
					{Src: 0, Dst: 1, Blocks: 1, Payload: []block.Block{b02}},
					{Src: 1, Dst: 2, Blocks: 1, Payload: []block.Block{b02}},
				},
			}},
		}},
	}
	opt := exec.Options{Traffic: []block.Block{b02}}

	ref, err := exec.Reference(sc, opt)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if !ref.Replayed || !ref.Buffers[2].Contains(b02) {
		t.Fatalf("Reference did not deliver B[0,2] to node 2: %v", ref.Buffers)
	}
	pg, err := exec.Compile(sc, opt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	compiled, err := pg.Run(exec.Options{})
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	oneShot, err := exec.Run(sc, opt)
	if err != nil {
		t.Fatalf("exec.Run: %v", err)
	}
	for _, got := range []*exec.Result{compiled, oneShot} {
		if !got.Replayed {
			t.Fatal("run did not replay")
		}
		sameBuffers(t, ref.Buffers, got.Buffers)
	}
}

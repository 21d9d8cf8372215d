// The differential test layer: the one-shot exec.Run — Compile, then
// a replay of the Program — must be indistinguishable from the
// Reference oracle on every registered algorithm: identical Measure
// counters, identical MaxSharing, identical delivery matrices (same
// blocks, same buffer order). This is the contract that lets every
// caller run on the compiled executor.
package exec_test

import (
	"reflect"
	"strconv"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// differentialShapes are the shapes of the headline differential
// sweep: square, cubic, and rectangular.
var differentialShapes = [][]int{{8, 8}, {4, 4, 4}, {12, 8}}

// runBoth executes sc on the Reference oracle and through exec.Run,
// and reports both outcomes.
func runBoth(t *testing.T, sc *schedule.Schedule) (ref, got *exec.Result) {
	t.Helper()
	ref, refErr := exec.Reference(sc, exec.Options{})
	got, err := exec.Run(sc, exec.Options{})
	if (refErr == nil) != (err == nil) {
		t.Fatalf("reference err = %v, run err = %v", refErr, err)
	}
	if refErr != nil {
		return nil, nil
	}
	return ref, got
}

// sameBuffers asserts the two delivery matrices are identical: same
// nodes, same blocks, same order.
func sameBuffers(t *testing.T, ref, got []*block.Buffer) {
	t.Helper()
	if (ref == nil) != (got == nil) {
		t.Fatalf("reference buffers nil=%v, got nil=%v", ref == nil, got == nil)
	}
	if ref == nil {
		return
	}
	if len(ref) != len(got) {
		t.Fatalf("buffer count %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i].View(), got[i].View()) {
			t.Fatalf("node %d delivery differs:\nreference: %v\ngot:       %v", i, ref[i].View(), got[i].View())
		}
	}
}

// TestDifferentialRegistryAlgorithms is the headline differential
// test: every Builder in the registry, on 8x8, 4x4x4 and 12x8, must
// produce identical Measure counters and identical delivery matrices
// under the Reference oracle and exec.Run.
func TestDifferentialRegistryAlgorithms(t *testing.T) {
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
					// Precondition miss (e.g. logtime needs powers of
					// two): nothing to compare, and both paths see the
					// same builder error.
					t.Skipf("builder: %v", err)
				}
				ref, got := runBoth(t, sc)
				if ref == nil {
					return
				}
				if ref.Measure != got.Measure {
					t.Errorf("Measure differs: reference %+v, run %+v", ref.Measure, got.Measure)
				}
				if ref.MaxSharing != got.MaxSharing {
					t.Errorf("MaxSharing differs: %d vs %d", ref.MaxSharing, got.MaxSharing)
				}
				if ref.Replayed != got.Replayed {
					t.Errorf("Replayed differs: %v vs %v", ref.Replayed, got.Replayed)
				}
				sameBuffers(t, ref.Buffers, got.Buffers)
			})
		}
	}
}

// TestDifferentialSparseTraffic covers the declared-traffic replay
// path: a sparse matrix routed through the proposed schedule must
// deliver identically under the Reference and exec.Run.
func TestDifferentialSparseTraffic(t *testing.T) {
	tor := topology.MustNew(8, 8)
	b, err := algorithm.For("proposed-sim")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	// Full traffic is implied by nil; this exercises the explicit
	// Traffic branch with the same matrix.
	traffic := exec.FullTraffic(tor)
	ref, err := exec.Reference(sc, exec.Options{Traffic: traffic})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(sc, exec.Options{Traffic: traffic})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Measure != got.Measure {
		t.Errorf("Measure differs: %+v vs %+v", ref.Measure, got.Measure)
	}
	sameBuffers(t, ref.Buffers, got.Buffers)
}

// TestDifferentialRejectsSameSchedules: invalid schedules must be
// rejected by both the Reference and exec.Run.
func TestDifferentialRejectsSameSchedules(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bad := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
		Name: "bad",
		Steps: []schedule.Step{{Transfers: []schedule.Transfer{
			{Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1},
			{Src: 0, Dst: 2, Dim: 1, Dir: topology.Pos, Hops: 1, Blocks: 1}, // one-port: node 0 sends twice
		}}},
	}}}
	_, refErr := exec.Reference(bad, exec.Options{})
	_, err := exec.Run(bad, exec.Options{})
	if refErr == nil || err == nil {
		t.Fatalf("one-port violation accepted: reference=%v run=%v", refErr, err)
	}
}

func shapeName(alg string, dims []int) string {
	s := alg + "/"
	for i, d := range dims {
		if i > 0 {
			s += "x"
		}
		s += strconv.Itoa(d)
	}
	return s
}

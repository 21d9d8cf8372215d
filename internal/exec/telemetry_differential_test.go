// Differential coverage for the telemetry layer: a compiled replay must
// emit the Reference oracle's event stream on the events both paths
// produce. Both emit from the same serial post-pass after the run has
// validated, so even the raw streams agree.
package exec_test

import (
	"reflect"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

// telemetryShapes are the tori of the stream comparisons: square 2D,
// cubic 3D, and a rectangular shape whose shorter dimension idles
// groups early.
var telemetryShapes = [][]int{{8, 8}, {4, 4, 4}, {12, 8}}

// recordRun executes alg on dims with a fresh memory sink attached —
// on the Reference oracle when reference is set, else through exec.Run
// — and returns the raw stream.
func recordRun(t *testing.T, alg string, dims []int, reference bool) []telemetry.Event {
	t.Helper()
	tor := topology.MustNew(dims...)
	b, err := algorithm.For(alg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Skipf("%s rejects %v: %v", alg, dims, err)
	}
	sink := &telemetry.MemorySink{}
	rec := telemetry.New(sink, costmodel.T3D(64))
	opt := exec.Options{Telemetry: rec}
	run := exec.Run
	if reference {
		run = exec.Reference
	}
	if _, err := run(sc, opt); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestTelemetryDifferentialRawOrder pins the stronger property the
// post-pass design buys: the RAW stream of an exec.Run equals the
// Reference oracle's, event for event, once the compiled-only counters
// are dropped — emission is a serial walk in schedule order on both
// paths, so no Canonical sort is needed.
func TestTelemetryDifferentialRawOrder(t *testing.T) {
	for _, alg := range []string{"proposed", "ring"} {
		for _, dims := range telemetryShapes {
			ref := recordRun(t, alg, dims, true)
			got := dropCompiledOnlyEvents(recordRun(t, alg, dims, false))
			if len(ref) != len(got) {
				t.Fatalf("%s %v: length mismatch %d vs %d", alg, dims, len(ref), len(got))
			}
			for i := range got {
				if !reflect.DeepEqual(ref[i], got[i]) {
					t.Fatalf("%s %v: raw stream diverges at event %d:\n reference %+v\n run       %+v",
						alg, dims, i, ref[i], got[i])
				}
			}
		}
	}
}

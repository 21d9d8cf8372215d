// Differential coverage for the telemetry layer: a parallel replay must
// emit exactly the serial replay's event stream, and both must match
// the Reference oracle's on the events every path produces. All paths
// emit from the same serial post-pass after the run has validated, so
// even the raw streams agree.
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
// with opt — and returns the raw stream.
func recordRun(t *testing.T, alg string, dims []int, reference bool, opt exec.Options) []telemetry.Event {
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
	opt.Telemetry = rec
	run := exec.Run
	if reference {
		run = exec.Reference
	}
	if _, err := run(sc, opt); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestTelemetryDifferentialSerialVsParallel: exec.Run's serial replay
// and its parallel replay, under every worker count, must emit
// canonically identical streams.
func TestTelemetryDifferentialSerialVsParallel(t *testing.T) {
	for _, alg := range []string{"proposed", "direct", "ring"} {
		for _, dims := range telemetryShapes {
			dims := dims
			t.Run(alg+"/"+topology.MustNew(dims...).String(), func(t *testing.T) {
				serial := recordRun(t, alg, dims, false, exec.Options{Serial: true})
				if len(serial) == 0 {
					t.Fatal("serial run emitted nothing")
				}
				for _, workers := range []int{0, 1, 3} {
					parallel := recordRun(t, alg, dims, false, exec.Options{Workers: workers})
					if len(parallel) != len(serial) {
						t.Fatalf("workers=%d: %d events vs serial's %d",
							workers, len(parallel), len(serial))
					}
					a, b := telemetry.Canonical(serial), telemetry.Canonical(parallel)
					if !reflect.DeepEqual(a, b) {
						for i := range a {
							if !reflect.DeepEqual(a[i], b[i]) {
								t.Fatalf("workers=%d: canonical streams diverge at %d:\n serial  %+v\n parallel %+v",
									workers, i, a[i], b[i])
							}
						}
						t.Fatalf("workers=%d: canonical streams diverge", workers)
					}
				}
			})
		}
	}
}

// TestTelemetryDifferentialRawOrder pins the stronger property the
// post-pass design buys: the RAW stream of a parallel exec.Run equals
// the Reference oracle's, event for event, once the compiled-only
// counters are dropped — emission is a serial walk in schedule order on
// both paths, not a per-worker race that Canonical has to repair.
func TestTelemetryDifferentialRawOrder(t *testing.T) {
	for _, alg := range []string{"proposed", "ring"} {
		for _, dims := range telemetryShapes {
			ref := recordRun(t, alg, dims, true, exec.Options{})
			got := dropCompiledOnlyEvents(recordRun(t, alg, dims, false, exec.Options{Workers: 4}))
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

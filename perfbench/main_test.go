package main

import (
	"os"
	"testing"

	"torusx"
)

// TestMain runs main instead of the tests in the child processes of an
// isolated workload.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runShort runs one workload for its shortest length: one set-up and two
// passes (one traced and one untraced when trace is set).
func runShort(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: seed, trace: trace, tmp: t.TempDir(), short: true}
	res, _, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d requests failed", workload, seed, res.Failed, res.Attempted)
	}
	return res
}

// seedDependent reports whether a count follows from the seed's inputs:
// only plan-auto's traffic matrices change what the requests compute.
func seedDependent(workload string) bool { return workload == "plan-auto" }

// TestCountsRepeat runs every workload twice under one seed and once
// under another. Every exact count must repeat under the same seed, and
// the counts that do not depend on the seed must repeat under the other.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	names := []string{"progcache.tier2_hit_ratio"}
	for _, cm := range countMetrics {
		names = append(names, cm.name)
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a := runShort(t, w, 1, true)
			b := runShort(t, w, 1, true)
			c := runShort(t, w, 2, true)
			nonzero := 0
			for _, name := range names {
				va, ok := a.Metrics[name]
				if !ok {
					t.Fatalf("%s missing", name)
				}
				if vb := b.Metrics[name]; vb != va {
					t.Errorf("%s: %v then %v under one seed", name, va.Value, vb.Value)
				}
				if vc := c.Metrics[name]; !seedDependent(w) && vc != va {
					t.Errorf("%s: %v under seed 1, %v under seed 2", name, va.Value, vc.Value)
				}
				if va.Value != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Errorf("every count is zero")
			}
			for _, lm := range layerMetrics {
				if _, ok := a.Metrics[lm.name]; !ok {
					t.Errorf("%s missing", lm.name)
				}
			}
		})
	}
}

// TestEndToEndMetrics runs every workload untraced and checks that it
// reports every end-to-end metric, none of them zero.
func TestEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := runShort(t, w, 1, false)
			for _, name := range []string{"setup_s", "ok_ratio", "peak_rss_mb", "pass_s", "op_ms_p50", "op_ms_p90"} {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("%s = %+v", name, m)
				}
			}
			if len(res.Metrics) != 6 {
				t.Errorf("%d metrics, want 6", len(res.Metrics))
			}
		})
	}
}

// TestPinsMatchCompare checks every pinned Measure, and the closed forms
// that pin the proposed algorithm, against torusx.Compare's compiled
// path. The request shapes are table shapes too.
func TestPinsMatchCompare(t *testing.T) {
	for _, c := range tableCells(tableShapes) {
		algs := []string{c.alg}
		if c.alg == "proposed" {
			algs = append(algs, "proposed-sim")
		}
		for _, alg := range algs {
			w, err := want(alg, c.dims)
			if err != nil {
				t.Fatal(err)
			}
			got, err := torusx.Compare(torusx.Algorithm(alg), c.dims...)
			if err != nil {
				t.Fatalf("%s %s: %v", alg, shape(c.dims), err)
			}
			if got != w {
				t.Errorf("%s %s: Compare gives %+v, pinned %+v", alg, shape(c.dims), got, w)
			}
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.9}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("quantile p50 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

package torusx

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"torusx/internal/baseline"
)

func TestAllToAllReport(t *testing.T) {
	tor, err := NewTorus(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AllToAll(tor)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 96 || rep.Phases != 4 {
		t.Fatalf("report: %+v", rep)
	}
	want := Predict(12, 8)
	if rep.Measure != want {
		t.Fatalf("measured %+v != predicted %+v", rep.Measure, want)
	}
	if rep.Schedule() == nil {
		t.Fatal("schedule missing")
	}
	if !strings.Contains(rep.Summary(), "group-1") {
		t.Fatal("summary missing phases")
	}
	if c := rep.Completion(T3DParams(64)); c <= 0 {
		t.Fatalf("completion = %g", c)
	}
}

func TestAllToAllRejectsBadShapes(t *testing.T) {
	tor, _ := NewTorus(10, 8)
	if _, err := AllToAll(tor); err == nil {
		t.Fatal("10x8 should be rejected")
	}
}

func TestAllToAllConcurrentReport(t *testing.T) {
	tor, _ := NewTorus(8, 8)
	rep, err := AllToAllConcurrent(tor)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MessagesSent != 6*64 {
		t.Fatalf("MessagesSent = %d", rep.MessagesSent)
	}
	if rep.Schedule() != nil {
		t.Fatal("concurrent backend records no schedule")
	}
	if rep.Summary() != "(no schedule recorded)" {
		t.Fatalf("summary: %q", rep.Summary())
	}
}

func TestAllToAllArbitrary(t *testing.T) {
	rep, err := AllToAllArbitrary(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RealNodes != 30 {
		t.Fatalf("RealNodes = %d", rep.RealNodes)
	}
	if got := fmt.Sprint(rep.PaddedDims); got != "[8 8]" {
		t.Fatalf("PaddedDims = %s", got)
	}
	if rep.HostSerializedSteps < rep.Measure.Steps {
		t.Fatal("serialized steps below padded steps")
	}
	if rep.MaxHostLoad < 1 {
		t.Fatalf("MaxHostLoad = %d", rep.MaxHostLoad)
	}
}

func TestCompareAlgorithms(t *testing.T) {
	prop, err := Compare(Proposed, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := Compare(Direct, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Compare(Ring, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(prop.Steps < ring.Steps && ring.Steps < dir.Steps) {
		t.Fatalf("startup ordering violated: proposed %d, ring %d, direct %d",
			prop.Steps, ring.Steps, dir.Steps)
	}
	fac, err := Compare(Factored, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fac.Steps != prop.Steps {
		// 8x8: factored needs 3+3 = 6 startups, same as proposed.
		t.Fatalf("factored startups = %d, want %d", fac.Steps, prop.Steps)
	}
	if dir.Blocks >= prop.Blocks {
		t.Fatal("direct should transmit fewer blocks along the critical node")
	}
	if _, err := Compare(Algorithm("bogus"), 8, 8); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := Compare(Proposed, 10, 10); err == nil {
		t.Fatal("proposed on 10x10 should error")
	}
	if _, err := Compare(Direct); err == nil {
		t.Fatal("no dims should error")
	}
}

func TestCompareMatchesClosedForms(t *testing.T) {
	// Ring is contention-free, so routing it through the shared
	// executor must not change its measure: it still matches the
	// closed form exactly.
	for _, dims := range [][]int{{4, 4}, {8, 8}, {12, 8}, {6, 5}, {4, 4, 4}} {
		ring, err := Compare(Ring, dims...)
		if err != nil {
			t.Fatal(err)
		}
		want := baseline.RingClosedForm(dims)
		if ring.Steps != want.Steps || ring.Blocks != want.Blocks || ring.Hops != want.Hops {
			t.Fatalf("%v: ring measured %+v, closed form %+v", dims, ring, want)
		}
	}
	// Proposed through the structural builder + executor matches the
	// paper's Table 1 closed form.
	prop, err := Compare(Proposed, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if prop != Predict(8, 8) {
		t.Fatalf("proposed measured %+v != predicted %+v", prop, Predict(8, 8))
	}
	// Direct now models wormhole link sharing: on 8x8 its Blocks are
	// 184 (the sum of per-step serialization factors), not the 63
	// single-block startups of the contention-blind accounting this
	// replaces. Documented in EXPERIMENTS.md.
	dir, err := Compare(Direct, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Steps != 63 || dir.Blocks != 184 {
		t.Fatalf("direct on 8x8 = %+v, want Steps=63 Blocks=184", dir)
	}
}

func TestCompareAllRouteThroughExecutor(t *testing.T) {
	// Every registered exchange algorithm must emit a schedule the
	// shared executor accepts — including schedule.Check() on the
	// emitted IR — and Algorithms lists them all.
	algs := Algorithms()
	if len(algs) < 6 {
		t.Fatalf("Algorithms() = %v", algs)
	}
	for _, alg := range []Algorithm{Proposed, Direct, Ring, Factored, LogTime} {
		m, err := Compare(alg, 8, 8)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if m.Steps == 0 || m.Blocks == 0 {
			t.Fatalf("%s: empty measure %+v", alg, m)
		}
	}
}

func TestAllToAllSparse(t *testing.T) {
	tor, _ := NewTorus(8, 8)
	pairs := []Pair{{0, 5}, {5, 0}, {7, 7}, {63, 1}, {30, 31}}
	rep, err := AllToAllSparse(tor, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measure.Steps == 0 {
		t.Fatal("steps should be charged")
	}
	// Validation paths.
	if _, err := AllToAllSparse(tor, []Pair{{0, 99}}); err == nil {
		t.Fatal("out-of-range pair should fail")
	}
	if _, err := AllToAllSparse(tor, []Pair{{0, 1}, {0, 1}}); err == nil {
		t.Fatal("duplicate pair should fail")
	}
	if rep, err = AllToAllSparse(tor, nil); err != nil || rep == nil {
		t.Fatalf("empty exchange should succeed: %v", err)
	}
}

func TestLowStartupParams(t *testing.T) {
	low := LowStartupParams(64)
	t3d := T3DParams(64)
	if low.Ts >= t3d.Ts {
		t.Fatalf("low startup %g should be below T3D %g", low.Ts, t3d.Ts)
	}
	m := Predict(16, 16)
	if low.Completion(m) >= t3d.Completion(m) {
		t.Fatal("lower startup must lower completion")
	}
}

func TestAllToAllConcurrentRejectsBadShape(t *testing.T) {
	tor, _ := NewTorus(10, 8)
	if _, err := AllToAllConcurrent(tor); err == nil {
		t.Fatal("10x8 should be rejected")
	}
}

func TestAllGatherAndArbitraryErrorPaths(t *testing.T) {
	if _, err := AllToAllArbitrary(5, 9); err == nil {
		t.Fatal("increasing dims should fail")
	}
	if _, err := AllToAllArbitrary(6); err == nil {
		t.Fatal("1D should fail")
	}
}

func TestScheduleFor(t *testing.T) {
	tor, _ := NewTorus(16, 16)
	sc, err := ScheduleFor(tor)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumSteps() != 10 {
		t.Fatalf("steps = %d, want 10", sc.NumSteps())
	}
	want := Predict(16, 16)
	if sc.SumMaxBlocks() != want.Blocks || sc.SumMaxHops() != want.Hops {
		t.Fatalf("schedule costs %d/%d, want %d/%d",
			sc.SumMaxBlocks(), sc.SumMaxHops(), want.Blocks, want.Hops)
	}
	bad, _ := NewTorus(10, 10)
	if _, err := ScheduleFor(bad); err == nil {
		t.Fatal("invalid shape should fail")
	}
}

func TestPredictMatchesPaperExample(t *testing.T) {
	m := Predict(12, 12)
	if m.Steps != 8 || m.Blocks != 576 || m.Hops != 22 || m.RearrangedBlocks != 432 {
		t.Fatalf("Predict(12,12) = %+v", m)
	}
}

func TestExchangeData(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {8, 8, 4}} {
		tor, _ := NewTorus(dims...)
		n := tor.Nodes()
		data := make([][][]byte, n)
		for i := range data {
			data[i] = make([][]byte, n)
			for j := range data[i] {
				data[i][j] = []byte(fmt.Sprintf("payload %d->%d", i, j))
			}
		}
		out, err := ExchangeData(tor, data)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for i := range out {
			for j := range out[i] {
				want := []byte(fmt.Sprintf("payload %d->%d", j, i))
				if !bytes.Equal(out[i][j], want) {
					t.Fatalf("%v: out[%d][%d] = %q, want %q", dims, i, j, out[i][j], want)
				}
				// The documented contract: no byte is copied.
				if &out[i][j][0] != &data[j][i][0] {
					t.Fatalf("%v: out[%d][%d] does not share its backing array with data[%d][%d]", dims, i, j, j, i)
				}
			}
		}
	}
}

func TestExchangeDataValidation(t *testing.T) {
	tor, _ := NewTorus(4, 4)
	if _, err := ExchangeData(tor, nil); err == nil {
		t.Fatal("nil data should error")
	}
	bad := make([][][]byte, tor.Nodes())
	for i := range bad {
		bad[i] = make([][]byte, 3)
	}
	if _, err := ExchangeData(tor, bad); err == nil {
		t.Fatal("ragged data should error")
	}
}

// fuzzShapes is the shape table indexed by the first fuzz-input byte.
// The first entries are native multiple-of-four tori; the rest have
// sides that are NOT multiples of four and therefore exercise the
// Section 6 virtual-node padding path end to end.
var fuzzShapes = [][]int{
	{4, 4}, {8, 4}, {4, 4, 4}, // native shapes
	{5, 4}, {6, 5}, {7, 5}, {9, 7}, // virtual-node 2D shapes
	{5, 4, 4}, {3, 2}, // virtual-node 3D and minimal shapes
}

// FuzzAllToAllSparse exercises the pair-validation and delivery paths
// of the sparse exchange with arbitrary pair lists over both native
// and virtual-node (Section 6) torus shapes. Input format: byte 0
// selects the shape from fuzzShapes (mod len); the rest is consumed
// pairwise as int8 (src, dst) pairs. In-range duplicate-free inputs
// must route and verify, everything else must be rejected with an
// error (never a panic or a silent misdelivery).
func FuzzAllToAllSparse(f *testing.F) {
	f.Add([]byte{})                    // shape 4x4, empty exchange
	f.Add([]byte{0, 0, 5, 5, 0, 7, 7}) // 4x4, valid sparse traffic
	f.Add([]byte{0, 0, 99})            // 4x4, destination out of range
	f.Add([]byte{0, 0, 1, 0, 1})       // 4x4, duplicate pair
	f.Add([]byte{3, 0, 5, 19, 0})      // 5x4 virtual: valid corner traffic
	f.Add([]byte{4, 0, 1, 0, 1})       // 6x5 virtual: duplicate pair
	f.Add([]byte{7, 0, 79})            // 5x4x4 virtual: valid 3D pair
	f.Add([]byte{8, 0, 251})           // 3x2 virtual: negative dst (int8)
	full := make([]byte, 0, 1+2*16*16)
	full = append(full, 0)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			full = append(full, byte(s), byte(d))
		}
	}
	f.Add(full) // the full 4x4 all-to-all matrix as a sparse instance
	f.Fuzz(func(t *testing.T, data []byte) {
		shape := 0
		if len(data) > 0 {
			shape = int(data[0]) % len(fuzzShapes)
			data = data[1:]
		}
		dims := fuzzShapes[shape]
		virtual := false
		n := 1
		for _, d := range dims {
			n *= d
			if d%4 != 0 {
				virtual = true
			}
		}
		pairs := make([]Pair, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			// int8 so the fuzzer reaches negative values too.
			pairs = append(pairs, Pair{Src: int(int8(data[i])), Dst: int(int8(data[i+1]))})
		}
		seen := make(map[Pair]bool, len(pairs))
		valid := true
		for _, pr := range pairs {
			if pr.Src < 0 || pr.Src >= n || pr.Dst < 0 || pr.Dst >= n || seen[pr] {
				valid = false
				break
			}
			seen[pr] = true
		}
		var rep *Report
		var err error
		if virtual {
			rep, err = AllToAllSparseArbitrary(dims, pairs)
		} else {
			tor, terr := NewTorus(dims...)
			if terr != nil {
				t.Fatal(terr)
			}
			rep, err = AllToAllSparse(tor, pairs)
		}
		if valid && err != nil {
			t.Fatalf("valid pairs %v on %v rejected: %v", pairs, dims, err)
		}
		if !valid && err == nil {
			t.Fatalf("invalid pairs %v on %v accepted", pairs, dims)
		}
		if valid && rep == nil {
			t.Fatal("valid exchange returned nil report")
		}
	})
}

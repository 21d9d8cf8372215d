package plan

import (
	"testing"

	"torusx/internal/topology"
)

// coord2D builds our Coord for the paper's 2D node P(r,c):
// dimension 0 is the column axis c (size C = a1), dimension 1 the row
// axis r.
func coord2D(r, c int) topology.Coord { return topology.Coord{c, r} }

// coord3D builds our Coord for the paper's 3D node P(X,Y,Z).
func coord3D(x, y, z int) topology.Coord { return topology.Coord{x, y, z} }

func TestGroupPhases2DMatchesPaperTables(t *testing.T) {
	// Section 3.2, phases 1 and 2, for every (r+c) mod 4 residue.
	cases := []struct {
		r, c           int
		phase1, phase2 Move
	}{
		// (r+c)%4 == 0: phase 1 +c, phase 2 +r.
		{0, 0, Move{0, topology.Pos}, Move{1, topology.Pos}},
		{2, 2, Move{0, topology.Pos}, Move{1, topology.Pos}},
		// (r+c)%4 == 1: phase 1 +r, phase 2 +c.
		{1, 0, Move{1, topology.Pos}, Move{0, topology.Pos}},
		{0, 1, Move{1, topology.Pos}, Move{0, topology.Pos}},
		// (r+c)%4 == 2: phase 1 -c, phase 2 -r.
		{1, 1, Move{0, topology.Neg}, Move{1, topology.Neg}},
		{2, 0, Move{0, topology.Neg}, Move{1, topology.Neg}},
		// (r+c)%4 == 3: phase 1 -r, phase 2 -c.
		{3, 0, Move{1, topology.Neg}, Move{0, topology.Neg}},
		{1, 2, Move{1, topology.Neg}, Move{0, topology.Neg}},
	}
	for _, tc := range cases {
		got := GroupPhases(coord2D(tc.r, tc.c))
		if len(got) != 2 {
			t.Fatalf("P(%d,%d): %d phases, want 2", tc.r, tc.c, len(got))
		}
		if got[0] != tc.phase1 || got[1] != tc.phase2 {
			t.Fatalf("P(%d,%d): got %v, want [%v %v]", tc.r, tc.c, got, tc.phase1, tc.phase2)
		}
	}
}

func TestGroupPhases3DMatchesPaperTables(t *testing.T) {
	// Section 4.1 phases 1-3. Dim 0 = X, 1 = Y, 2 = Z.
	cases := []struct {
		x, y, z int
		want    [3]Move
	}{
		// Z even plane, (X+Y)%4 = 0: pattern A, B, then +Z (Z%4==0).
		{0, 0, 0, [3]Move{{0, topology.Pos}, {1, topology.Pos}, {2, topology.Pos}}},
		// Z even plane, Z%4==2: last phase -Z.
		{0, 0, 2, [3]Move{{0, topology.Pos}, {1, topology.Pos}, {2, topology.Neg}}},
		// Z even, (X+Y)%4=1: phase1 +Y, phase2 +X.
		{1, 0, 0, [3]Move{{1, topology.Pos}, {0, topology.Pos}, {2, topology.Pos}}},
		// Z even, (X+Y)%4=2: phase1 -X, phase2 -Y.
		{1, 1, 4, [3]Move{{0, topology.Neg}, {1, topology.Neg}, {2, topology.Pos}}},
		// Z even, (X+Y)%4=3: phase1 -Y, phase2 -X.
		{2, 1, 2, [3]Move{{1, topology.Neg}, {0, topology.Neg}, {2, topology.Neg}}},
		// Z%4==1: phase1 +Z, phase2 pattern B, phase3 pattern A.
		{0, 0, 1, [3]Move{{2, topology.Pos}, {1, topology.Pos}, {0, topology.Pos}}},
		// Z%4==3: phase1 -Z.
		{0, 0, 3, [3]Move{{2, topology.Neg}, {1, topology.Pos}, {0, topology.Pos}}},
		// Z odd, (X+Y)%4=1: phase2 +X (pattern B), phase3 +Y (pattern A).
		{0, 1, 1, [3]Move{{2, topology.Pos}, {0, topology.Pos}, {1, topology.Pos}}},
		// Z odd, (X+Y)%4=2: phase2 -Y, phase3 -X.
		{2, 0, 5, [3]Move{{2, topology.Pos}, {1, topology.Neg}, {0, topology.Neg}}},
		// Z odd, (X+Y)%4=3: phase2 -X, phase3 -Y.
		{3, 0, 7, [3]Move{{2, topology.Neg}, {0, topology.Neg}, {1, topology.Neg}}},
	}
	for _, tc := range cases {
		got := GroupPhases(coord3D(tc.x, tc.y, tc.z))
		if len(got) != 3 {
			t.Fatalf("P(%d,%d,%d): %d phases, want 3", tc.x, tc.y, tc.z, len(got))
		}
		for p := range tc.want {
			if got[p] != tc.want[p] {
				t.Fatalf("P(%d,%d,%d) phase %d: got %v, want %v",
					tc.x, tc.y, tc.z, p+1, got[p], tc.want[p])
			}
		}
	}
}

func TestGroupPhasesCoverEachDimensionOnce(t *testing.T) {
	for _, dims := range [][]int{{12, 8}, {8, 8, 8}, {8, 8, 4, 4}, {4, 4, 4, 4, 4}} {
		tor := topology.MustNew(dims...)
		tor.EachNode(func(id topology.NodeID, c topology.Coord) {
			moves := GroupPhases(c)
			if len(moves) != len(dims) {
				t.Fatalf("%v node %v: %d phases, want %d", dims, c, len(moves), len(dims))
			}
			seen := make(map[int]bool)
			for _, m := range moves {
				if m.Dim < 0 || m.Dim >= len(dims) {
					t.Fatalf("%v node %v: bad dim %d", dims, c, m.Dim)
				}
				if seen[m.Dim] {
					t.Fatalf("%v node %v: dim %d repeated in %v", dims, c, m.Dim, moves)
				}
				seen[m.Dim] = true
			}
		})
	}
}

func TestGroupPhasesConstantWithinGroup(t *testing.T) {
	// All members of a node group share the same assignment in every
	// phase, which is what lets a group ring-scatter with a fixed
	// destination (the paper's "destinations remain fixed" property).
	tor := topology.MustNew(12, 8, 4)
	for g := 0; g < tor.NumGroups(); g++ {
		members := tor.GroupMembers(topology.GroupID(g))
		ref := GroupPhases(tor.CoordOf(members[0]))
		for _, id := range members[1:] {
			got := GroupPhases(tor.CoordOf(id))
			for p := range ref {
				if got[p] != ref[p] {
					t.Fatalf("group %d: member %d assignment %v differs from %v",
						g, id, got, ref)
				}
			}
		}
	}
}

func TestGroupPhasesPanicsOn1D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GroupPhases on 1 dim should panic")
		}
	}()
	GroupPhases(topology.Coord{3})
}

func TestQuadOrder2D(t *testing.T) {
	// Paper phase 3: (r+c) even does c (dim0) then r (dim1); odd the reverse.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			got := QuadOrder(coord2D(r, c))
			var want []int
			if (r+c)%2 == 0 {
				want = []int{0, 1}
			} else {
				want = []int{1, 0}
			}
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("P(%d,%d): order %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestQuadMove2DMatchesPaperPhase3(t *testing.T) {
	// Section 3.2 phase 3, all four rule rows per step.
	cases := []struct {
		r, c, step int
		want       Move
	}{
		{0, 0, 1, Move{0, topology.Pos}}, // even, c%4=0 -> c+2
		{1, 1, 1, Move{0, topology.Pos}}, // even, c%4=1 -> c+2
		{0, 2, 1, Move{0, topology.Neg}}, // even, c%4=2 -> c-2
		{1, 0, 1, Move{1, topology.Pos}}, // odd, r%4=1 -> r+2
		{3, 0, 1, Move{1, topology.Neg}}, // odd, r%4=3 -> r-2
		{0, 0, 2, Move{1, topology.Pos}}, // step2 even, r%4=0 -> r+2
		{2, 2, 2, Move{1, topology.Neg}}, // step2 even, r%4=2 -> r-2
		{1, 0, 2, Move{0, topology.Pos}}, // step2 odd, c%4=0 -> c+2
		{0, 3, 2, Move{0, topology.Neg}}, // step2 odd, c%4=3 -> c-2
	}
	for _, x := range cases {
		got := QuadMove(coord2D(x.r, x.c), x.step)
		if got != x.want {
			t.Fatalf("P(%d,%d) step %d: got %v, want %v", x.r, x.c, x.step, got, x.want)
		}
	}
}

func TestQuadMove3DMatchesPaperPhase4(t *testing.T) {
	cases := []struct {
		x, y, z, step int
		want          Move
	}{
		// Step 1, Z even, (X+Y)%2=0, X quad bit 0 -> +2 X.
		{0, 0, 0, 1, Move{0, topology.Pos}},
		// Step 1, Z even, (X+Y)%2=0, X=2 -> -2 X.
		{2, 0, 0, 1, Move{0, topology.Neg}},
		// Step 1, Z even, (X+Y)%2=1 -> Y move by own Y bit.
		{1, 0, 0, 1, Move{1, topology.Pos}},
		{1, 2, 0, 1, Move{1, topology.Neg}},
		// Step 1, Z%4==1 -> +2 Z; Z%4==3 -> -2 Z.
		{0, 0, 1, 1, Move{2, topology.Pos}},
		{0, 0, 3, 1, Move{2, topology.Neg}},
		// Step 2: in-plane complement for everyone.
		{0, 0, 0, 2, Move{1, topology.Pos}},
		{1, 0, 0, 2, Move{0, topology.Pos}},
		{3, 0, 1, 2, Move{0, topology.Neg}},
		// Step 3: Z even flips Z (0 -> +2, 2 -> -2); Z odd does first in-plane dim.
		{0, 0, 0, 3, Move{2, topology.Pos}},
		{0, 0, 2, 3, Move{2, topology.Neg}},
		{0, 0, 1, 3, Move{0, topology.Pos}},
		{1, 0, 1, 3, Move{1, topology.Pos}},
	}
	for _, tc := range cases {
		got := QuadMove(coord3D(tc.x, tc.y, tc.z), tc.step)
		if got != tc.want {
			t.Fatalf("P(%d,%d,%d) step %d: got %v, want %v",
				tc.x, tc.y, tc.z, tc.step, got, tc.want)
		}
	}
}

func TestQuadOrderCoverEachDimensionOnce(t *testing.T) {
	for _, dims := range [][]int{{8, 4}, {4, 4, 4}, {8, 4, 4, 4}} {
		tor := topology.MustNew(dims...)
		tor.EachNode(func(id topology.NodeID, c topology.Coord) {
			order := QuadOrder(c)
			if len(order) != len(dims) {
				t.Fatalf("node %v: order %v", c, order)
			}
			seen := make(map[int]bool)
			for _, d := range order {
				if seen[d] {
					t.Fatalf("node %v: dim %d repeated in %v", c, d, order)
				}
				seen[d] = true
			}
		})
	}
}

func TestQuadMoveStaysInSubmesh(t *testing.T) {
	// The own-coordinate sign rule keeps every quad move inside the
	// node's 4x...x4 submesh (this is the paper's 3D typo fix).
	tor := topology.MustNew(8, 8, 8)
	tor.EachNode(func(id topology.NodeID, c topology.Coord) {
		for step := 1; step <= 3; step++ {
			m := QuadMove(c, step)
			dst := tor.Move(c, m.Dim, 2*int(m.Dir))
			if tor.Submesh(dst) != tor.Submesh(c) {
				t.Fatalf("node %v step %d move %v leaves submesh", c, step, m)
			}
		}
	})
}

func TestQuadMovePairsArePartners(t *testing.T) {
	// The quad exchange is pairwise: if P moves to Q in step s, Q
	// moves to P in step s.
	tor := topology.MustNew(8, 4, 4)
	for step := 1; step <= 3; step++ {
		tor.EachNode(func(id topology.NodeID, c topology.Coord) {
			m := QuadMove(c, step)
			q := tor.Move(c, m.Dim, 2*int(m.Dir))
			mq := QuadMove(q, step)
			back := tor.Move(q, mq.Dim, 2*int(mq.Dir))
			if !back.Equal(c) {
				t.Fatalf("step %d: %v -> %v -> %v, not a pair", step, c, q, back)
			}
		})
	}
}

func TestBitMoveMatchesPaper(t *testing.T) {
	// 2D phase 4: step 1 along c, step 2 along r, flip own bit.
	if got := BitMove(coord2D(0, 0), 1); got != (Move{0, topology.Pos}) {
		t.Fatalf("step1 P(0,0): %v", got)
	}
	if got := BitMove(coord2D(0, 1), 1); got != (Move{0, topology.Neg}) {
		t.Fatalf("step1 P(0,1): %v", got)
	}
	if got := BitMove(coord2D(0, 0), 2); got != (Move{1, topology.Pos}) {
		t.Fatalf("step2 P(0,0): %v", got)
	}
	if got := BitMove(coord2D(1, 0), 2); got != (Move{1, topology.Neg}) {
		t.Fatalf("step2 P(1,0): %v", got)
	}
	// 3D phase 5: steps 1..3 along X, Y, Z.
	if got := BitMove(coord3D(0, 0, 0), 3); got != (Move{2, topology.Pos}) {
		t.Fatalf("3D step3: %v", got)
	}
	if got := BitMove(coord3D(0, 0, 5), 3); got != (Move{2, topology.Neg}) {
		t.Fatalf("3D step3 odd: %v", got)
	}
}

func TestBitMovePairsArePartners(t *testing.T) {
	tor := topology.MustNew(8, 8)
	for step := 1; step <= 2; step++ {
		tor.EachNode(func(id topology.NodeID, c topology.Coord) {
			m := BitMove(c, step)
			q := tor.Move(c, m.Dim, int(m.Dir))
			mq := BitMove(q, step)
			back := tor.Move(q, mq.Dim, int(mq.Dir))
			if !back.Equal(c) {
				t.Fatalf("step %d: %v -> %v -> %v, not a pair", step, c, q, back)
			}
		})
	}
}

// TestPerBlockRules pins the per-block rules on a 12-wide ring, where
// a stride-4 ring has three positions, and on 4-windows and bit pairs.
func TestPerBlockRules(t *testing.T) {
	const size = 12
	pos, neg := Move{Dim: 0, Dir: topology.Pos}, Move{Dim: 0, Dir: topology.Neg}
	cases := []struct {
		self, dest int
		m          Move
		want       int
	}{
		{1, 1, pos, 0},  // already at the proxy
		{1, 2, pos, 0},  // proxy of 2 from 1 is 1 itself
		{1, 5, pos, 1},  // proxy 5: one stride forward
		{1, 9, pos, 2},  // proxy 9: two strides forward
		{1, 9, neg, 1},  // ... or one stride backward, wrapping
		{9, 1, pos, 1},  // wraps forward past the end of the ring
		{10, 3, neg, 2}, // proxy 2: two strides backward
	}
	for _, c := range cases {
		got := GroupRemaining(topology.Coord{c.self}, topology.Coord{c.dest}, c.m, size)
		if got != c.want {
			t.Errorf("GroupRemaining(%d -> %d, %+v) = %d, want %d", c.self, c.dest, c.m, got, c.want)
		}
	}
	self := topology.Coord{5, 2} // quad bits 0 and 1, low bits 1 and 0
	for _, c := range []struct {
		dest         topology.Coord
		quad0, quad1 int
		low0, low1   int
	}{
		{topology.Coord{5, 2}, 0, 0, 0, 0},
		{topology.Coord{6, 1}, 1, 1, 1, 1},
		{topology.Coord{4, 7}, 0, 0, 1, 1},
		{topology.Coord{11, 3}, 1, 0, 0, 1},
	} {
		if got := QuadBit(self, c.dest, 0); got != c.quad0 {
			t.Errorf("QuadBit(%v, %v, 0) = %d, want %d", self, c.dest, got, c.quad0)
		}
		if got := QuadBit(self, c.dest, 1); got != c.quad1 {
			t.Errorf("QuadBit(%v, %v, 1) = %d, want %d", self, c.dest, got, c.quad1)
		}
		if got := LowBit(self, c.dest, 0); got != c.low0 {
			t.Errorf("LowBit(%v, %v, 0) = %d, want %d", self, c.dest, got, c.low0)
		}
		if got := LowBit(self, c.dest, 1); got != c.low1 {
			t.Errorf("LowBit(%v, %v, 1) = %d, want %d", self, c.dest, got, c.low1)
		}
	}
}

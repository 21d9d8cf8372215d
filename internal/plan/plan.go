// Package plan encodes the communication-pattern tables of Suh & Shin
// (ICPP'98): which dimension and direction every node uses in every
// phase of the all-to-all personalized exchange.
//
// Dimension indexing follows the paper with dims[0] = a1 (the largest
// dimension). For 2D tori this means dims[0] is the paper's column
// axis c (size C) and dims[1] the row axis r (size R), so the paper's
// node P(r,c) is Coord{c, r} here — the (r+c) mod 4 selector is
// symmetric, and all IF-tables of Sections 3.2 and 4.1 are reproduced
// exactly (see the tests).
//
// Three kinds of phases exist:
//
//   - Group phases 1..n: ring scatters with stride 4. Each node is
//     assigned one (dim, direction) per phase such that it covers every
//     dimension exactly once over the n phases; the assignment order
//     varies with position so that all 4^n groups proceed in parallel
//     without channel contention (patterns A, B and C of the paper).
//   - Quad phase (phase n+1): n steps of distance-2 exchanges inside
//     each 4^n submesh. Each node traverses all n dimensions in a
//     node-dependent order; the direction flips the node's own
//     "quad bit" (coordinate mod 4) / 2.
//   - Bit phase (phase n+2): n steps of distance-1 exchanges inside
//     each 2^n submesh, dimension j in step j for every node; the
//     direction flips the node's own bit (coordinate mod 2).
//
// Note on the paper's 3D phase-4 sign rules: the printed table makes
// the sign of an X-move depend on Y mod 4 (and vice versa), which
// would carry nodes out of their 4×4×4 submesh; the 2D table (phase 3)
// uses the node's own coordinate. We take the 3D rules to be a typo
// and use the own-coordinate rule in all dimensions, which the
// exchange tests prove correct and contention-free.
package plan

import "torusx/internal/topology"

// Move is one phase assignment: travel along Dim in direction Dir.
type Move struct {
	Dim int
	Dir topology.Direction
}

// patternA is the paper's pattern A (2D phase 1): selector
// s = (c0+c1) mod 4 over the two most significant dimensions d0, d1.
//
//	s=0 → +d0, s=1 → +d1, s=2 → −d0, s=3 → −d1.
func patternA(c topology.Coord, d0, d1 int) Move {
	switch (c[d0] + c[d1]) % 4 {
	case 0:
		return Move{Dim: d0, Dir: topology.Pos}
	case 1:
		return Move{Dim: d1, Dir: topology.Pos}
	case 2:
		return Move{Dim: d0, Dir: topology.Neg}
	default:
		return Move{Dim: d1, Dir: topology.Neg}
	}
}

// patternB is the paper's pattern B (2D phase 2): the orthogonal
// counterpart of pattern A.
//
//	s=0 → +d1, s=1 → +d0, s=2 → −d1, s=3 → −d0.
func patternB(c topology.Coord, d0, d1 int) Move {
	switch (c[d0] + c[d1]) % 4 {
	case 0:
		return Move{Dim: d1, Dir: topology.Pos}
	case 1:
		return Move{Dim: d0, Dir: topology.Pos}
	case 2:
		return Move{Dim: d1, Dir: topology.Neg}
	default:
		return Move{Dim: d0, Dir: topology.Neg}
	}
}

// GroupPhases returns the n group-phase assignments of node c for an
// n-dimensional torus, n >= 2. Phase p of the paper is element p-1.
//
// The recursion follows Section 4.2: nodes in an even-numbered unit
// along dimension n follow the (n−1)-dimensional patterns first and
// finish with dimension n; the others start with dimension n and then
// follow the (n−1)-dimensional patterns — in reverse phase order, as
// the 3D tables of Section 4.1 prescribe (pattern C, then B, then A).
//
// Direction along the last dimension z = c[n−1]:
//
//	early movers (z odd):  z mod 4 = 1 → +, z mod 4 = 3 → −
//	late movers  (z even): z mod 4 = 0 → +, z mod 4 = 2 → −
func GroupPhases(c topology.Coord) []Move {
	n := len(c)
	if n < 2 {
		panic("plan: group phases require at least 2 dimensions")
	}
	if n == 2 {
		return []Move{patternA(c, 0, 1), patternB(c, 0, 1)}
	}
	last := n - 1
	z := c[last]
	inner := GroupPhases(c[:last])
	moves := make([]Move, 0, n)
	if z%2 == 0 {
		moves = append(moves, inner...)
		dir := topology.Pos
		if z%4 == 2 {
			dir = topology.Neg
		}
		return append(moves, Move{Dim: last, Dir: dir})
	}
	dir := topology.Pos
	if z%4 == 3 {
		dir = topology.Neg
	}
	moves = append(moves, Move{Dim: last, Dir: dir})
	for i := len(inner) - 1; i >= 0; i-- {
		moves = append(moves, inner[i])
	}
	return moves
}

// QuadOrder returns the order in which node c traverses the n
// dimensions during phase n+1 (the distance-2 submesh exchange),
// element j being the dimension used in step j+1.
//
// Base case (2D, paper phase 3): nodes with (c0+c1) even do dimension
// 0 then 1; odd nodes the reverse. Recursion as in GroupPhases: even
// positions along the last dimension append it, odd positions prepend
// it and reverse the inner order (matching the 3D phase-4 tables).
func QuadOrder(c topology.Coord) []int {
	n := len(c)
	if n < 2 {
		panic("plan: quad order requires at least 2 dimensions")
	}
	if n == 2 {
		if (c[0]+c[1])%2 == 0 {
			return []int{0, 1}
		}
		return []int{1, 0}
	}
	last := n - 1
	inner := QuadOrder(c[:last])
	order := make([]int, 0, n)
	if c[last]%2 == 0 {
		order = append(order, inner...)
		return append(order, last)
	}
	order = append(order, last)
	for i := len(inner) - 1; i >= 0; i-- {
		order = append(order, inner[i])
	}
	return order
}

// QuadMove returns the phase n+1 move of node c in step (1-based)
// step: distance 2 along the step's dimension, flipping the node's own
// quad bit, so partners pair up inside each 4×…×4 submesh.
func QuadMove(c topology.Coord, step int) Move {
	dim := QuadOrder(c)[step-1]
	if (c[dim]%topology.GroupStride)/2 == 0 {
		return Move{Dim: dim, Dir: topology.Pos}
	}
	return Move{Dim: dim, Dir: topology.Neg}
}

// BitMove returns the phase n+2 move of node c in step (1-based)
// step: distance 1 along dimension step−1, flipping the node's own
// low bit, pairing nodes inside each 2×…×2 submesh.
func BitMove(c topology.Coord, step int) Move {
	dim := step - 1
	if c[dim]%2 == 0 {
		return Move{Dim: dim, Dir: topology.Pos}
	}
	return Move{Dim: dim, Dir: topology.Neg}
}

// The per-block rules below decide, for the node at self holding a
// block bound for dest, whether and in which order the block moves in
// each phase. The lock-step executor (internal/exchange) and the SPMD
// node program (internal/simchan) both apply them.

// GroupRemaining returns the number of stride-4 ring hops a block
// bound for dest must still travel along move m, from the node at
// self, before it reaches its proxy position in m.Dim. size is the
// torus's size in m.Dim.
func GroupRemaining(self, dest topology.Coord, m Move, size int) int {
	proxy := (dest[m.Dim]/topology.GroupStride)*topology.GroupStride + self[m.Dim]%topology.GroupStride
	d := proxy - self[m.Dim]
	if m.Dir == topology.Neg {
		d = -d
	}
	d %= size
	if d < 0 {
		d += size
	}
	return d / topology.GroupStride
}

// QuadBit returns 1 when dest lies in the other half of self's
// 4-window along dim — the block crosses in the quad-phase step on
// dim — and 0 otherwise.
func QuadBit(self, dest topology.Coord, dim int) int {
	if (self[dim]%topology.GroupStride)/2 != (dest[dim]%topology.GroupStride)/2 {
		return 1
	}
	return 0
}

// LowBit returns 1 when dest differs from self in the low bit of dim —
// the block crosses in the bit-phase step on dim — and 0 otherwise.
func LowBit(self, dest topology.Coord, dim int) int {
	if self[dim]%2 != dest[dim]%2 {
		return 1
	}
	return 0
}

// GrayRank maps a bit string (most significant first) to its position
// in the binary-reflected Gray-code sequence, the array order that
// keeps every step's send set contiguous during the quad and bit
// phases (the paper's B0,B1,B3,B2 arrangement generalized to n
// dimensions).
func GrayRank(bits []int) int {
	rank, cur := 0, 0
	for _, b := range bits {
		cur ^= b
		rank = rank<<1 | cur
	}
	return rank
}

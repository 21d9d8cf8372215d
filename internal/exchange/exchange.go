// Package exchange implements the Suh–Shin all-to-all personalized
// exchange algorithms for n-dimensional tori (ICPP'98), n >= 2.
//
// The algorithm runs in n+2 phases on an a1×…×an torus whose
// dimensions are multiples of four with a1 >= … >= an:
//
//   - Phases 1..n (group phases): the 4^n node groups — subtori of
//     stride 4 — each perform an internal all-to-all by ring scatters,
//     one dimension per phase, with the dimension order and direction
//     assigned by package plan so that all groups proceed in parallel
//     without channel contention. Every message travels exactly 4 hops
//     and each phase has a1/4 − 1 steps. A block destined for node d
//     is routed to its proxy: the node of the originator's group that
//     sits in d's 4×…×4 submesh.
//   - Phase n+1 (quad phase): n steps of distance-2 pairwise exchanges
//     move blocks to the correct 2×…×2 submesh inside each 4×…×4
//     submesh.
//   - Phase n+2 (bit phase): n steps of distance-1 pairwise exchanges
//     deliver blocks to their final destination inside each 2×…×2
//     submesh.
//
// Between consecutive phases (n+1 boundaries) every node rearranges
// its data array once; within a phase every transmission is a
// contiguous run of the array, which the executor verifies.
package exchange

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/plan"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Stage selects how far a run proceeds; used to inspect the
// intermediate invariants the paper states between phases.
type Stage int

const (
	// StageAll runs the complete exchange (default).
	StageAll Stage = iota
	// StageGroup stops after the n group phases, when every node holds
	// its group's blocks for its own 4×…×4 submesh.
	StageGroup
	// StageQuad additionally runs phase n+1, when every node holds
	// blocks for its own 2×…×2 submesh.
	StageQuad
)

// Options configures a run.
type Options struct {
	// CheckSteps validates contention-freedom and the one-port model
	// after every step, aborting the run on the first violation.
	CheckSteps bool
	// SkipRearrangeCharges suppresses the per-boundary rearrangement
	// accounting (the buffers are still re-sorted).
	SkipRearrangeCharges bool
	// StopAfter truncates the run after the given stage.
	StopAfter Stage
	// RecordPayloads attaches every transfer's extracted block set to
	// the recorded schedule (Transfer.Payload), so the shared executor
	// in internal/exec can replay and delivery-verify the run.
	RecordPayloads bool
}

// Counters aggregates the cost-model measurements of one run, in the
// units of the paper's Table 1.
type Counters struct {
	Phases int // n + 2
	Steps  int // startup cost in units of t_s

	// SumMaxBlocks is the message-transmission cost in block units:
	// the sum over steps of the largest single message of the step
	// (a step lasts as long as its largest message).
	SumMaxBlocks int
	// SumMaxHops is the propagation cost in hop units: the sum over
	// steps of the step's hop distance.
	SumMaxHops int
	// TotalBlockHops is the aggregate link traffic: sum over transfers
	// of blocks × hops.
	TotalBlockHops int

	// RearrangeBoundaries counts inter-phase rearrangement steps
	// (paper: n+1).
	RearrangeBoundaries int
	// RearrangedBlocksMaxPerNode is the per-node rearrangement cost in
	// block units: the maximum over nodes of the total number of
	// blocks that node rearranged (paper: (n+1)·N).
	RearrangedBlocksMaxPerNode int

	// NonContiguousSends counts extractions that were not a single
	// contiguous run of the sender's data array. The paper's claim (iv)
	// is that this is always zero with the prescribed layouts; the
	// measurement shows it holds for 2D but not for the last steps of
	// the quad and bit phases when n >= 3 (see EXPERIMENTS.md).
	NonContiguousSends int
	// NonContiguousByStep maps "phase/step" (1-based step) to the
	// number of nodes whose send was not one contiguous run there.
	NonContiguousByStep map[string]int
	// ForcedRearrangedBlocksMaxPerNode is the extra rearrangement cost
	// (in blocks, per the busiest node) of gathering non-contiguous
	// send sets before transmission — the measured correction to the
	// paper's (n+1)·N rearrangement claim for n >= 3 (zero in 2D).
	ForcedRearrangedBlocksMaxPerNode int
}

// Result is the outcome of a run.
type Result struct {
	Torus    *topology.Torus
	Buffers  []*block.Buffer
	Schedule *schedule.Schedule
	Counters Counters
}

// executor carries the mutable state of a run.
type executor struct {
	t      *topology.Torus
	opt    Options
	bufs   []*block.Buffer
	coords []topology.Coord // coordinate of every node, by id
	groups [][]plan.Move    // group-phase assignment of every node
	sched  *schedule.Schedule
	ctr    Counters
	forced []int // per-node forced-rearrangement block counts
}

// Run executes the complete exchange on t and returns buffers,
// schedule and counters. The torus must have at least two dimensions,
// every dimension a multiple of four, sizes non-increasing.
func Run(t *topology.Torus, opt Options) (*Result, error) {
	if t.NDims() < 2 {
		return nil, fmt.Errorf("exchange: need at least 2 dimensions, got %d", t.NDims())
	}
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	ex := newExecutor(t, opt, block.Initial(t))
	if err := ex.run(); err != nil {
		return nil, err
	}
	return ex.result(), nil
}

// RunWithBuffers is Run over caller-provided initial buffers (one per
// node, blocks with arbitrary origin/dest pairs whose dest determines
// routing). Used by the virtual-node extension and by tests.
func RunWithBuffers(t *topology.Torus, bufs []*block.Buffer, opt Options) (*Result, error) {
	if t.NDims() < 2 {
		return nil, fmt.Errorf("exchange: need at least 2 dimensions, got %d", t.NDims())
	}
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	if len(bufs) != t.Nodes() {
		return nil, fmt.Errorf("exchange: %d buffers for %d nodes", len(bufs), t.Nodes())
	}
	ex := newExecutor(t, opt, bufs)
	if err := ex.run(); err != nil {
		return nil, err
	}
	return ex.result(), nil
}

func newExecutor(t *topology.Torus, opt Options, bufs []*block.Buffer) *executor {
	n := t.Nodes()
	ex := &executor{
		t:      t,
		opt:    opt,
		bufs:   bufs,
		coords: make([]topology.Coord, n),
		groups: make([][]plan.Move, n),
		sched:  &schedule.Schedule{Fabric: t},
	}
	for i := 0; i < n; i++ {
		ex.coords[i] = t.CoordOf(topology.NodeID(i))
		ex.groups[i] = plan.GroupPhases(ex.coords[i])
	}
	ex.forced = make([]int, n)
	return ex
}

func (ex *executor) result() *Result {
	ex.ctr.Phases = len(ex.sched.Phases)
	ex.ctr.Steps = ex.sched.NumSteps()
	ex.ctr.SumMaxBlocks = ex.sched.SumMaxBlocks()
	ex.ctr.SumMaxHops = ex.sched.SumMaxHops()
	for _, b := range ex.bufs {
		if b.RearrangedBlocks > ex.ctr.RearrangedBlocksMaxPerNode {
			ex.ctr.RearrangedBlocksMaxPerNode = b.RearrangedBlocks
		}
	}
	for _, f := range ex.forced {
		if f > ex.ctr.ForcedRearrangedBlocksMaxPerNode {
			ex.ctr.ForcedRearrangedBlocksMaxPerNode = f
		}
	}
	return &Result{Torus: ex.t, Buffers: ex.bufs, Schedule: ex.sched, Counters: ex.ctr}
}

func (ex *executor) run() error {
	nd := ex.t.NDims()
	// Initial layout for group phase 1 — part of the starting data
	// structure, not a charged rearrangement (Section 3.3).
	ex.arrangeGroup(0, false)
	for p := 0; p < nd; p++ {
		if p > 0 {
			ex.arrangeGroup(p, true)
		}
		if err := ex.groupPhase(p); err != nil {
			return err
		}
	}
	if ex.opt.StopAfter == StageGroup {
		return nil
	}
	ex.arrangeQuad()
	if err := ex.quadPhase(); err != nil {
		return err
	}
	if ex.opt.StopAfter == StageQuad {
		return nil
	}
	ex.arrangeBit()
	if err := ex.bitPhase(); err != nil {
		return err
	}
	return nil
}

// groupRemaining returns the number of stride-4 ring hops block b must
// still travel along move m from the holder at coordinate self before
// reaching its proxy position in that dimension.
func (ex *executor) groupRemaining(self topology.Coord, dest topology.Coord, m plan.Move) int {
	proxyK := (dest[m.Dim]/topology.GroupStride)*topology.GroupStride + self[m.Dim]%topology.GroupStride
	d := proxyK - self[m.Dim]
	if m.Dir == topology.Neg {
		d = -d
	}
	return ex.t.Wrap(m.Dim, d) / topology.GroupStride
}

// arrangeGroup sorts every node's array ascending by remaining ring
// distance for group phase p, so that every send of the phase is a
// contiguous suffix.
func (ex *executor) arrangeGroup(p int, charged bool) {
	for i, buf := range ex.bufs {
		self := ex.coords[i]
		m := ex.groups[i][p]
		key := func(b block.Block) int {
			return ex.groupRemaining(self, ex.coords[b.Dest], m)
		}
		if charged && !ex.opt.SkipRearrangeCharges {
			buf.ArrangeByKey(key)
		} else {
			buf.SortByKey(key)
		}
	}
	if charged {
		ex.ctr.RearrangeBoundaries++
	}
}

// groupPhase runs the a1/4 − 1 steps of group phase p.
func (ex *executor) groupPhase(p int) error {
	steps := ex.t.Dim(0)/topology.GroupStride - 1
	ph := schedule.Phase{Name: fmt.Sprintf("group-%d", p+1)}
	if p > 0 && !ex.opt.SkipRearrangeCharges {
		// The boundary before this phase re-sorted all N blocks at
		// every node (arrangeGroup with charging).
		ph.Rearrange = ex.t.Nodes()
	}
	for s := 0; s < steps; s++ {
		step, err := ex.execStep(ph.Name, s, func(i int) (plan.Move, int, func(block.Block) bool) {
			self := ex.coords[i]
			m := ex.groups[i][p]
			pred := func(b block.Block) bool {
				return ex.groupRemaining(self, ex.coords[b.Dest], m) > 0
			}
			return m, topology.GroupStride, pred
		})
		if err != nil {
			return err
		}
		ph.Steps = append(ph.Steps, step)
	}
	ex.sched.Phases = append(ex.sched.Phases, ph)
	return nil
}

// grayRank maps a bit string (most significant first) to its position
// in the binary-reflected Gray-code sequence, the array order that
// keeps every step's send set contiguous during the quad and bit
// phases (the paper's B0,B1,B3,B2 arrangement generalized to n
// dimensions).
func grayRank(bits []int) int {
	rank, cur := 0, 0
	for _, b := range bits {
		cur ^= b
		rank = rank<<1 | cur
	}
	return rank
}

// quadBitDiff reports whether dest lies in the other half of the
// 4-window along dim relative to self.
func quadBitDiff(self, dest topology.Coord, dim int) int {
	if (self[dim]%topology.GroupStride)/2 != (dest[dim]%topology.GroupStride)/2 {
		return 1
	}
	return 0
}

// lowBitDiff reports whether dest differs from self in the low bit of
// dim.
func lowBitDiff(self, dest topology.Coord, dim int) int {
	if self[dim]%2 != dest[dim]%2 {
		return 1
	}
	return 0
}

// arrangeQuad sorts every node's array into the Gray order of the
// node's quad-phase step sequence.
func (ex *executor) arrangeQuad() {
	nd := ex.t.NDims()
	bits := make([]int, nd)
	for i, buf := range ex.bufs {
		self := ex.coords[i]
		order := plan.QuadOrder(self)
		key := func(b block.Block) int {
			dest := ex.coords[b.Dest]
			for j, dim := range order {
				bits[j] = quadBitDiff(self, dest, dim)
			}
			return grayRank(bits)
		}
		if ex.opt.SkipRearrangeCharges {
			buf.SortByKey(key)
		} else {
			buf.ArrangeByKey(key)
		}
	}
	ex.ctr.RearrangeBoundaries++
}

// quadPhase runs the n distance-2 steps of phase n+1.
func (ex *executor) quadPhase() error {
	nd := ex.t.NDims()
	ph := schedule.Phase{Name: "quad"}
	if !ex.opt.SkipRearrangeCharges {
		ph.Rearrange = ex.t.Nodes()
	}
	for s := 1; s <= nd; s++ {
		step, err := ex.execStep(ph.Name, s-1, func(i int) (plan.Move, int, func(block.Block) bool) {
			self := ex.coords[i]
			m := plan.QuadMove(self, s)
			pred := func(b block.Block) bool {
				return quadBitDiff(self, ex.coords[b.Dest], m.Dim) == 1
			}
			return m, 2, pred
		})
		if err != nil {
			return err
		}
		ph.Steps = append(ph.Steps, step)
	}
	ex.sched.Phases = append(ex.sched.Phases, ph)
	return nil
}

// arrangeBit sorts every node's array into the Gray order of the bit
// phase's fixed dimension sequence.
func (ex *executor) arrangeBit() {
	nd := ex.t.NDims()
	bits := make([]int, nd)
	for i, buf := range ex.bufs {
		self := ex.coords[i]
		key := func(b block.Block) int {
			dest := ex.coords[b.Dest]
			for dim := 0; dim < nd; dim++ {
				bits[dim] = lowBitDiff(self, dest, dim)
			}
			return grayRank(bits)
		}
		if ex.opt.SkipRearrangeCharges {
			buf.SortByKey(key)
		} else {
			buf.ArrangeByKey(key)
		}
	}
	ex.ctr.RearrangeBoundaries++
}

// bitPhase runs the n distance-1 steps of phase n+2.
func (ex *executor) bitPhase() error {
	nd := ex.t.NDims()
	ph := schedule.Phase{Name: "bit"}
	if !ex.opt.SkipRearrangeCharges {
		ph.Rearrange = ex.t.Nodes()
	}
	for s := 1; s <= nd; s++ {
		step, err := ex.execStep(ph.Name, s-1, func(i int) (plan.Move, int, func(block.Block) bool) {
			self := ex.coords[i]
			m := plan.BitMove(self, s)
			pred := func(b block.Block) bool {
				return lowBitDiff(self, ex.coords[b.Dest], m.Dim) == 1
			}
			return m, 1, pred
		})
		if err != nil {
			return err
		}
		ph.Steps = append(ph.Steps, step)
	}
	ex.sched.Phases = append(ex.sched.Phases, ph)
	return nil
}

// delivery is one extracted message awaiting synchronous delivery.
type delivery struct {
	dst    topology.NodeID
	blocks []block.Block
}

// execStep performs one synchronous step: every node extracts its send
// set according to assign (move, hop distance, predicate), then all
// messages are delivered, each landing at the positions its receiver
// vacated. It returns the structural step for the schedule.
func (ex *executor) execStep(phase string, index int, assign func(i int) (plan.Move, int, func(block.Block) bool)) (schedule.Step, error) {
	n := ex.t.Nodes()
	var step schedule.Step
	deliveries := make([]delivery, 0, n)
	insertPos := make([]int, n)
	for i := 0; i < n; i++ {
		m, hops, pred := assign(i)
		taken, pos, contig := ex.bufs[i].TakeIfAt(nil, pred)
		insertPos[i] = pos
		if len(taken) == 0 {
			continue
		}
		if !contig {
			ex.ctr.NonContiguousSends++
			if ex.ctr.NonContiguousByStep == nil {
				ex.ctr.NonContiguousByStep = make(map[string]int)
			}
			ex.ctr.NonContiguousByStep[fmt.Sprintf("%s/%d", phase, index+1)]++
			// A real machine must gather the scattered runs into one
			// send buffer first: charge rho per moved block.
			ex.forced[i] += len(taken)
		}
		dst := ex.t.MoveID(topology.NodeID(i), m.Dim, hops*int(m.Dir))
		tr := schedule.Transfer{
			Src: topology.NodeID(i), Dst: dst,
			Dim: m.Dim, Dir: m.Dir, Hops: hops, Blocks: len(taken),
		}
		if ex.opt.RecordPayloads {
			tr.Payload = append([]block.Block(nil), taken...)
		}
		step.Transfers = append(step.Transfers, tr)
		ex.ctr.TotalBlockHops += len(taken) * hops
		deliveries = append(deliveries, delivery{dst: dst, blocks: taken})
	}
	for _, d := range deliveries {
		buf := ex.bufs[d.dst]
		pos := insertPos[d.dst]
		if pos > buf.Len() {
			pos = buf.Len()
		}
		buf.InsertAt(pos, d.blocks)
	}
	if ex.opt.CheckSteps {
		if err := schedule.CheckStep(ex.t, phase, index, &step); err != nil {
			return step, err
		}
	}
	return step, nil
}

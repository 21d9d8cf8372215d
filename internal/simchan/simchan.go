// Package simchan executes the Suh–Shin exchange as a truly concurrent
// SPMD program: one goroutine per torus node, one buffered channel per
// node modelling its single consumption port (the one-port model), and
// a cyclic barrier marking step boundaries.
//
// Unlike the lock-step executor in package exchange, no goroutine
// reads any other node's buffer: each node decides what to send, when
// to send, and whether a message will arrive purely from its own
// coordinates and the algorithm's rules — exactly the information an
// SPMD process on a real torus machine would have. Intermediate nodes
// do not participate in forwarding because wormhole routing moves
// flits through router hardware without involving the processors;
// link-level contention is a schedule property already validated by
// schedule.Check.
//
// The backend exists to demonstrate that the published schedule is
// executable under asynchronous message passing with bounded channel
// capacity and no central coordinator, and to cross-check the
// lock-step executor: both must produce identical final buffers.
// RunPayload carries real payloads on the same program: each payload
// is bound to the block that travels hop by hop, so no payload byte is
// ever copied.
package simchan

import (
	"fmt"
	"sync"

	"torusx/internal/block"
	"torusx/internal/plan"
	"torusx/internal/topology"
)

// barrier is a reusable cyclic barrier for n parties.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n parties have called wait for this generation.
func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	gen := b.gen
	for b.gen == gen {
		b.cond.Wait()
	}
}

// Result is the outcome of a concurrent run.
type Result struct {
	Torus   *topology.Torus
	Buffers []*block.Buffer
	// MessagesSent counts point-to-point messages actually injected
	// (empty idle steps send nothing).
	MessagesSent int
}

// Run executes the complete exchange concurrently and returns the
// final buffers. The torus must satisfy the same preconditions as
// exchange.Run.
func Run(t *topology.Torus) (*Result, error) {
	if t.NDims() < 2 {
		return nil, fmt.Errorf("simchan: need at least 2 dimensions, got %d", t.NDims())
	}
	if err := t.ValidateForExchange(); err != nil {
		return nil, err
	}
	n := t.Nodes()
	bufs := block.Initial(t)
	// A message is one combined transfer between ring neighbours or
	// exchange partners.
	inbox := make([]chan []block.Block, n)
	for i := range inbox {
		inbox[i] = make(chan []block.Block, 1) // one consumption port
	}
	bar := newBarrier(n)
	sent := make([]int, n)
	// Read-only coordinate table shared by all goroutines: node i's
	// coordinates. Lookup replaces repeated CoordOf allocation in the
	// per-block predicates.
	coords := make([]topology.Coord, n)
	for i := range coords {
		coords[i] = t.CoordOf(topology.NodeID(i))
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			node := &spmdNode{
				t:      t,
				id:     topology.NodeID(id),
				self:   coords[id],
				coords: coords,
				buf:    bufs[id],
				inbox:  inbox,
				bar:    bar,
				send:   make([]block.Block, 0, n),
			}
			node.run()
			sent[id] = node.sent
		}(i)
	}
	wg.Wait()

	res := &Result{Torus: t, Buffers: bufs}
	for _, s := range sent {
		res.MessagesSent += s
	}
	return res, nil
}

// spmdNode is the per-goroutine state: everything a node can know
// locally.
type spmdNode struct {
	t      *topology.Torus
	id     topology.NodeID
	self   topology.Coord
	coords []topology.Coord // shared read-only coordinate table
	buf    *block.Buffer
	inbox  []chan []block.Block
	bar    *barrier
	sent   int
	bits   []int // scratch for gray keys
	// send is the outgoing message, reused every step: the receiver
	// copies it into its buffer before the step's barrier, and the
	// next step refills it only after that barrier.
	send []block.Block
}

func (nd *spmdNode) run() {
	n := nd.t.NDims()
	moves := plan.GroupPhases(nd.self)
	globalSteps := nd.t.Dim(0)/topology.GroupStride - 1

	for p := 0; p < n; p++ {
		m := moves[p]
		nd.buf.SortByKey(func(b block.Block) int {
			return nd.groupRemaining(nd.coords[b.Dest], m)
		})
		ringLen := nd.t.Dim(m.Dim) / topology.GroupStride
		dest := nd.t.MoveID(nd.id, m.Dim, topology.GroupStride*int(m.Dir))
		for s := 1; s <= globalSteps; s++ {
			active := s <= ringLen-1
			nd.step(active, dest, nd.groupPred(m))
		}
	}

	order := plan.QuadOrder(nd.self)
	nd.buf.SortByKey(nd.quadKey(order))
	for s := 1; s <= n; s++ {
		m := plan.QuadMove(nd.self, s)
		dest := nd.t.MoveID(nd.id, m.Dim, 2*int(m.Dir))
		nd.step(true, dest, func(b block.Block) bool {
			return nd.quadBit(b, m.Dim) == 1
		})
	}

	nd.buf.SortByKey(nd.bitKey())
	for s := 1; s <= n; s++ {
		m := plan.BitMove(nd.self, s)
		dest := nd.t.MoveID(nd.id, m.Dim, int(m.Dir))
		nd.step(true, dest, func(b block.Block) bool {
			return nd.lowBit(b, m.Dim) == 1
		})
	}
}

// step performs one synchronous step: extract-and-send, then receive
// (when active), then barrier. The partner's activity mirrors ours by
// symmetry — the ring predecessor shares our ring length in group
// phases, and quad/bit partners are always active.
func (nd *spmdNode) step(active bool, dest topology.NodeID, pred func(block.Block) bool) {
	if active {
		var pos int
		nd.send, pos, _ = nd.buf.TakeIfAt(nd.send[:0], pred)
		nd.inbox[dest] <- nd.send
		nd.sent++
		recv := <-nd.inbox[nd.id]
		if pos > nd.buf.Len() {
			pos = nd.buf.Len()
		}
		nd.buf.InsertAt(pos, recv)
	}
	nd.bar.wait()
}

func (nd *spmdNode) groupRemaining(dest topology.Coord, m plan.Move) int {
	proxyK := (dest[m.Dim]/topology.GroupStride)*topology.GroupStride + nd.self[m.Dim]%topology.GroupStride
	d := proxyK - nd.self[m.Dim]
	if m.Dir == topology.Neg {
		d = -d
	}
	return nd.t.Wrap(m.Dim, d) / topology.GroupStride
}

func (nd *spmdNode) groupPred(m plan.Move) func(block.Block) bool {
	return func(b block.Block) bool {
		return nd.groupRemaining(nd.coords[b.Dest], m) > 0
	}
}

func (nd *spmdNode) quadBit(b block.Block, dim int) int {
	dest := nd.coords[b.Dest]
	if (nd.self[dim]%topology.GroupStride)/2 != (dest[dim]%topology.GroupStride)/2 {
		return 1
	}
	return 0
}

func (nd *spmdNode) lowBit(b block.Block, dim int) int {
	dest := nd.coords[b.Dest]
	if nd.self[dim]%2 != dest[dim]%2 {
		return 1
	}
	return 0
}

func grayRank(bits []int) int {
	rank, cur := 0, 0
	for _, b := range bits {
		cur ^= b
		rank = rank<<1 | cur
	}
	return rank
}

func (nd *spmdNode) quadKey(order []int) func(b block.Block) int {
	n := nd.t.NDims()
	if nd.bits == nil {
		nd.bits = make([]int, n)
	}
	return func(b block.Block) int {
		for j, dim := range order {
			nd.bits[j] = nd.quadBit(b, dim)
		}
		return grayRank(nd.bits)
	}
}

func (nd *spmdNode) bitKey() func(b block.Block) int {
	n := nd.t.NDims()
	if nd.bits == nil {
		nd.bits = make([]int, n)
	}
	return func(b block.Block) int {
		for dim := 0; dim < n; dim++ {
			nd.bits[dim] = nd.lowBit(b, dim)
		}
		return grayRank(nd.bits)
	}
}

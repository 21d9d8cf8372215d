// Package verify checks the correctness invariants of an all-to-all
// personalized exchange: global block conservation, final delivery,
// and the intermediate proxy-placement property of the Suh–Shin group
// phases.
package verify

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/topology"
)

// Conservation checks that the buffers together hold exactly one block
// per (origin, dest) pair of the full N×N exchange.
func Conservation(f topology.Fabric, bufs []*block.Buffer) error {
	n := f.Nodes()
	seen := make([]bool, n*n)
	total := 0
	for holder, buf := range bufs {
		for _, b := range buf.View() {
			if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
				return fmt.Errorf("verify: node %d holds out-of-range block %v", holder, b)
			}
			idx := int(b.Origin)*n + int(b.Dest)
			if seen[idx] {
				return fmt.Errorf("verify: duplicate block %v (seen again at node %d)", b, holder)
			}
			seen[idx] = true
			total++
		}
	}
	if total != n*n {
		return fmt.Errorf("verify: %d blocks present, want %d", total, n*n)
	}
	return nil
}

// Delivered checks the exchange post-condition: node i holds exactly
// the N blocks {B[j,i] : all j}.
func Delivered(f topology.Fabric, bufs []*block.Buffer) error {
	n := f.Nodes()
	if len(bufs) != n {
		return fmt.Errorf("verify: %d buffers for %d nodes", len(bufs), n)
	}
	for i, buf := range bufs {
		if buf.Len() != n {
			return fmt.Errorf("verify: node %d holds %d blocks, want %d", i, buf.Len(), n)
		}
		fromOrigin := make([]bool, n)
		for _, b := range buf.View() {
			if b.Dest != topology.NodeID(i) {
				return fmt.Errorf("verify: node %d holds misdelivered block %v", i, b)
			}
			if fromOrigin[b.Origin] {
				return fmt.Errorf("verify: node %d holds two blocks from origin %d", i, b.Origin)
			}
			fromOrigin[b.Origin] = true
		}
	}
	return nil
}

// DeliveredMatrix checks delivery of an arbitrary declared traffic
// matrix: node i must hold exactly the blocks of traffic whose Dest is
// i, no more and no fewer. Duplicate (origin, dest) pairs in traffic
// are rejected. This is the post-condition the shared executor
// enforces after replaying any payload-annotated schedule.
func DeliveredMatrix(f topology.Fabric, bufs []*block.Buffer, traffic []block.Block) error {
	n := f.Nodes()
	if len(bufs) != n {
		return fmt.Errorf("verify: %d buffers for %d nodes", len(bufs), n)
	}
	want := make(map[block.Block]bool, len(traffic))
	perDest := make([]int, n)
	for _, b := range traffic {
		if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
			return fmt.Errorf("verify: traffic block %v out of range for %d nodes", b, n)
		}
		if want[b] {
			return fmt.Errorf("verify: duplicate traffic block %v", b)
		}
		want[b] = true
		perDest[b.Dest]++
	}
	for i, buf := range bufs {
		if buf.Len() != perDest[i] {
			return fmt.Errorf("verify: node %d holds %d blocks, want %d", i, buf.Len(), perDest[i])
		}
		for _, b := range buf.View() {
			if b.Dest != topology.NodeID(i) {
				return fmt.Errorf("verify: node %d holds misdelivered block %v", i, b)
			}
			if !want[b] {
				return fmt.Errorf("verify: node %d holds block %v outside the traffic matrix (or duplicated)", i, b)
			}
			delete(want, b)
		}
	}
	if len(want) != 0 {
		for b := range want {
			return fmt.Errorf("verify: traffic block %v was never delivered", b)
		}
	}
	return nil
}

// DeliveredSubset checks delivery when only a subset of (origin, dest)
// pairs participates (e.g. the virtual-node extension, where only real
// nodes exchange): node i must hold exactly one block from each origin
// in origins destined to i, and nothing else; nodes not in the
// destination set must hold nothing.
func DeliveredSubset(_ topology.Fabric, bufs []*block.Buffer, participants []topology.NodeID) error {
	inSet := make(map[topology.NodeID]bool, len(participants))
	for _, id := range participants {
		inSet[id] = true
	}
	for i, buf := range bufs {
		id := topology.NodeID(i)
		if !inSet[id] {
			if buf.Len() != 0 {
				return fmt.Errorf("verify: non-participant %d holds %d blocks", i, buf.Len())
			}
			continue
		}
		if buf.Len() != len(participants) {
			return fmt.Errorf("verify: node %d holds %d blocks, want %d", i, buf.Len(), len(participants))
		}
		seen := make(map[topology.NodeID]bool, len(participants))
		for _, b := range buf.View() {
			if b.Dest != id {
				return fmt.Errorf("verify: node %d holds misdelivered block %v", i, b)
			}
			if !inSet[b.Origin] {
				return fmt.Errorf("verify: node %d holds block from non-participant %v", i, b)
			}
			if seen[b.Origin] {
				return fmt.Errorf("verify: node %d holds duplicate from origin %d", i, b.Origin)
			}
			seen[b.Origin] = true
		}
	}
	return nil
}

// ProxyPlacement checks the invariant that holds after the n group
// phases: every node q holds exactly the blocks originated in q's
// group whose destinations lie in q's 4×…×4 submesh.
func ProxyPlacement(t *topology.Torus, bufs []*block.Buffer) error {
	for i, buf := range bufs {
		self := t.CoordOf(topology.NodeID(i))
		selfGroup := t.Group(self)
		selfSM := t.Submesh(self)
		want := t.Nodes() // every node still holds N blocks
		if buf.Len() != want {
			return fmt.Errorf("verify: node %d holds %d blocks after group phases, want %d", i, buf.Len(), want)
		}
		for _, b := range buf.View() {
			oc := t.CoordOf(b.Origin)
			dc := t.CoordOf(b.Dest)
			if t.Group(oc) != selfGroup {
				return fmt.Errorf("verify: node %d holds block %v from foreign group", i, b)
			}
			if t.Submesh(dc) != selfSM {
				return fmt.Errorf("verify: node %d holds block %v for foreign submesh", i, b)
			}
		}
	}
	return nil
}

package exec

import (
	"sort"
	"sync"

	"torusx/internal/costmodel"
	"torusx/internal/par"
)

// Zero-copy strided-datatype replay: the descriptor plan.
//
// A compiled program never models a node's buffer as a compacted
// array (which would make every extraction copy its payload out and
// shift the survivors down over the holes, so the short scattered
// payloads of the ρ phases of factored and logtime would degenerate
// into many small copies plus a compaction pass per transfer). It uses
// an append-only block log instead: every block's physical position is
// the log slot its arrival was assigned, fixed forever, and fully
// computable at compile time from pass 1's arrival stamps. Nothing
// ever compacts; a transfer is one strided gather from the source
// node's log region into a precomputed contiguous window of the
// destination's region.
//
// On top of the fixed positions, two compile-time rewrites remove
// copies entirely:
//
//   - ρ elision: a self-transfer (a rearrangement copy within one
//     node) can be elided — its blocks keep their old log positions
//     and the next hop's gather descriptors absorb the permutation —
//     whenever costmodel.RewriteWins prices the descriptor dispatches
//     below the bulk copy. Payloads too scattered to express cheaply
//     execute the copy into a fresh contiguous window.
//   - last-hop direct delivery: a transfer that is the final mover of
//     every block it carries gets a precomputed window in the final
//     delivery layout, so ReplayInto gathers it straight into the
//     caller's buffer and skips the log append. A program whose every
//     payload transfer is elided or last-hop is rewrite-only:
//     ReplayInto touches no arena scratch at all.
//
// The plan is built by a second compile pass (parallel over nodes)
// reusing pass 1's per-node event runs, priced per transfer, and the
// winner recorded in the per-phase rewrite/copy counters. Replay
// through the plan is differentially tested against the Reference
// executor on every registry (fabric, algorithm) pair.

// xdesc is one strided datatype descriptor: count windows of blocklen
// consecutive log slots, window starts stride apart. count == 1 is a
// plain [start, start+blocklen) run. stride may be negative or smaller
// than blocklen: after a ρ elision the positions of a later gather are
// an arbitrary permutation of earlier log slots.
type xdesc struct {
	start, count, blocklen, stride int32
}

// dtransfer is one transfer's descriptor-mode plan, parallel to the
// ptransfer table (indexed by global transfer ordinal).
type dtransfer struct {
	// descOff/descLen window into Program.descBacking: the gather
	// descriptors covering the transfer's payload positions in the
	// source node's log region, in arrival-stamp order. Zero-length for
	// elided and empty transfers.
	descOff, descLen int32
	// insPos is the absolute log position of the transfer's insert
	// window [insPos, insPos+payLen); -1 when the transfer was elided
	// (ρ rewrite: the blocks keep their old positions).
	insPos int32
	// finalPos, when >= 0, marks a last-hop transfer: this transfer is
	// the final mover of every block it carries, and its payload's
	// final delivery slots are exactly [finalPos, finalPos+payLen) in
	// the flat delivery layout. ReplayInto gathers such transfers
	// straight into the caller's buffer.
	finalPos int32
}

// tailSeg is one contiguous run of a node's final deliveries gathered
// from the log: descriptors [descOff, descOff+descLen) of
// Program.descBacking expand to the block ids delivered at
// node-relative positions [dstPos, dstPos+len).
type tailSeg struct {
	dstPos, descOff, descLen int32
}

// gather expands descs against the log into dst, returning the element
// count written. It is the descriptor replay's whole inner loop: one
// memmove per (count × blocklen) window.
func gather(dst, log []int32, descs []xdesc) int {
	w := 0
	for i := range descs {
		d := &descs[i]
		s, bl := int(d.start), int(d.blocklen)
		if d.count == 1 {
			w += copy(dst[w:], log[s:s+bl])
			continue
		}
		st := int(d.stride)
		for c := int32(0); c < d.count; c++ {
			w += copy(dst[w:], log[s:s+bl])
			s += st
		}
	}
	return w
}

// coalesceDescs folds pos — a payload's source log positions in
// arrival-stamp order — into strided descriptors: maximal +1 runs
// become blocks, and consecutive blocks of equal length with a
// constant start-to-start delta merge into one descriptor. This is the
// run-length/stride recognizer the tentpole names; the common ρ-phase
// permutations (interleaves, transposes of contiguous groups) collapse
// to a handful of descriptors.
func coalesceDescs(dst []xdesc, pos []int32) []xdesc {
	i := 0
	for i < len(pos) {
		start := pos[i]
		j := i + 1
		for j < len(pos) && pos[j] == pos[j-1]+1 {
			j++
		}
		bl := int32(j - i)
		if m := len(dst); m > 0 && dst[m-1].blocklen == bl {
			last := &dst[m-1]
			if last.count == 1 {
				last.stride = start - last.start
				last.count = 2
				i = j
				continue
			}
			if start == last.start+last.count*last.stride {
				last.count++
				i = j
				continue
			}
		}
		dst = append(dst, xdesc{start: start, count: 1, blocklen: bl})
		i = j
	}
	return dst
}

// descScratch pools the descriptor planner's transient tables across
// compiles, compileScratch-style: every region a compile reads is
// fully written by that same compile first (lastMove and direct are
// re-initialized over the traffic ids, the worst-case backings are
// written before the compaction reads them through the recorded
// counts), so reuse needs no zeroing.
type descScratch struct {
	lastMove  []int32   // block id -> last moving transfer ordinal
	finalRank []int32   // block id -> rank within its node's deliveries
	direct    []uint8   // block id -> delivered by a last-hop gather
	isLast    []uint8   // ordinal -> final mover of its whole payload
	survAll   []int32   // deliveries bucketed by node (finalBase offsets)
	nodeDescs [][]xdesc // per source node: its transfers' descriptors, in event order
	descHead  []xdesc   // the lists' shared initial backing: one slot per extraction
	plans     []tplan   // ordinal -> the transfer's node-local plan
	tailFWC   []xdesc   // worst-case tailFull descriptors at finalBase offsets
	tailRWC   []xdesc   // worst-case tailResid descriptors at finalBase offsets
	tailSegWC []tailSeg
}

var descScratchPool = sync.Pool{New: func() any { return new(descScratch) }}

// tplan is one payload transfer's node-local plan from the per-node
// walks: its insert position in the destination's log region (-1 when
// elided) and its descriptor window in nodeDescs[src]. One struct per
// ordinal puts the fields the walks write and the compaction reads for
// a transfer on one cache line instead of three.
type tplan struct {
	insLocal         int32
	descOff, descCnt int32
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growDesc(s []xdesc, n int) []xdesc {
	if cap(s) < n {
		return make([]xdesc, n)
	}
	return s[:n]
}

// planDescriptors is compile pass 2: it lowers the replay to the
// descriptor plan. Inputs are pass 1's artifacts: the per-node event
// runs (opOff/opBacking, with ordOff/ordSpill resolving the rare
// stamp-resorted payloads), the per-node initial contents
// (initIDs/initOff), the final holder/stamp table hs, the per-node
// arrival totals, and each transfer's first-arriving block id
// (firstArr). Must run after compileReplay verified delivery.
func (p *Program) planDescriptors(opOff []int32, opBacking []opRec, ordOff, ordSpill, initIDs, initOff []int32,
	hs []uint64, arrivals, firstArr []int32, numT int) {
	n := p.n
	ds := descScratchPool.Get().(*descScratch)
	defer descScratchPool.Put(ds)

	numDeliver := len(p.trafficIDs)
	lastMove := growI32(ds.lastMove, p.numBlocks)
	ds.lastMove = lastMove
	finalRank := growI32(ds.finalRank, p.numBlocks)
	ds.finalRank = finalRank
	direct := growU8(ds.direct, p.numBlocks)
	ds.direct = direct
	isLast := growU8(ds.isLast, numT)
	ds.isLast = isLast
	if cap(ds.plans) < numT {
		ds.plans = make([]tplan, numT)
	}
	plans := ds.plans[:numT]
	survAll := growI32(ds.survAll, numDeliver)
	ds.survAll = survAll
	if cap(ds.nodeDescs) < n {
		ds.nodeDescs = make([][]xdesc, n)
	}
	nodeDescs := ds.nodeDescs[:n]
	tailFWC := growDesc(ds.tailFWC, numDeliver)
	ds.tailFWC = tailFWC
	tailRWC := growDesc(ds.tailRWC, numDeliver)
	ds.tailRWC = tailRWC
	if cap(ds.tailSegWC) < numDeliver {
		ds.tailSegWC = make([]tailSeg, numDeliver)
	}
	tailSegWC := ds.tailSegWC[:numDeliver]

	// Final delivery layout: node v's blocks occupy
	// [finalBase[v], finalBase[v+1]) of the flat delivery buffer.
	finalBase := make([]int32, n+1)
	for v := 0; v < n; v++ {
		finalBase[v+1] = finalBase[v] + p.perDest[v]
	}
	p.finalBase = finalBase

	// Serial pre-pass: each block's last moving transfer, the last-hop
	// transfers (final mover of their whole payload), and the blocks
	// they deliver directly. Done serially because a transfer's payload
	// spans the src node while the delivery verdict lands on the dst —
	// the parallel per-node walks below only read these tables for ids
	// their own node owns.
	for _, id := range p.trafficIDs {
		lastMove[id] = -1
		direct[id] = 0
	}
	g := 0
	for si := range p.steps {
		ts := p.steps[si].transfers
		for ti := range ts {
			pt := &ts[ti]
			for _, id := range p.payloadBacking[pt.payOff : pt.payOff+pt.payLen] {
				lastMove[id] = int32(g)
			}
			g++
		}
	}
	// extOff counts each node's extractions (one per payload transfer it
	// sends), the floor of its descriptor count.
	extOff := make([]int32, n+1)
	g = 0
	for si := range p.steps {
		ts := p.steps[si].transfers
		for ti := range ts {
			pt := &ts[ti]
			isLast[g] = 0
			if pt.payLen > 0 {
				extOff[pt.src+1]++
				all := uint8(1)
				for _, id := range p.payloadBacking[pt.payOff : pt.payOff+pt.payLen] {
					if lastMove[id] != int32(g) {
						all = 0
						break
					}
				}
				isLast[g] = all
				if all != 0 {
					for _, id := range p.payloadBacking[pt.payOff : pt.payOff+pt.payLen] {
						direct[id] = 1
					}
				}
			}
			g++
		}
	}

	// Deliveries bucketed by destination node (matrix order; each
	// node's worker sorts its own segment by final arrival stamp).
	{
		cur := make([]int32, n)
		copy(cur, finalBase[:n])
		for _, id := range p.trafficIDs {
			v := int(id) % n
			survAll[cur[v]] = id
			cur[v]++
		}
	}

	// Each node's descriptor list starts in its own window of one shared
	// backing, with room for one descriptor per extraction; a node whose
	// extractions need more grows its list past the window (the full
	// slice expression keeps an append from spilling into the next
	// node's window). The lists grow with the descriptors emitted, not
	// with the payload volume.
	for v := 0; v < n; v++ {
		extOff[v+1] += extOff[v]
	}
	descHead := growDesc(ds.descHead, int(extOff[n]))
	ds.descHead = descHead
	for v := 0; v < n; v++ {
		nodeDescs[v] = descHead[extOff[v]:extOff[v]:extOff[v+1]]
	}

	// Parallel pass over nodes: replay each node's event run once more,
	// this time assigning append-only log positions, recognizing each
	// extraction's positions as strided descriptors, pricing ρ elision,
	// and building the node's tail gather plans. All cross-node state
	// is read-only or indexed by ids the node owns, so the walks are
	// data-race free.
	nodeLog := make([]int32, n)
	tailFullCnt := make([]int32, n)
	tailResidSegCnt := make([]int32, n)
	tailResidDescCnt := make([]int32, n)
	par.ForEach(0, n, func(lo, hi int) {
		idPos := acquireIDSlot(p.numBlocks) // block id -> log slot at the node in progress
		maxS := 0
		for v := lo; v < hi; v++ {
			if s := int(arrivals[v]); s > maxS {
				maxS = s
			}
		}
		logIDs := make([]int32, maxS) // assignment journal, for the idPos reset
		var physBuf []int32
		var runs []xdesc
		for v := lo; v < hi; v++ {
			descs := nodeDescs[v]
			cursor := 0
			for _, id := range initIDs[initOff[v]:initOff[v+1]] {
				idPos[id] = int32(cursor)
				logIDs[cursor] = id
				cursor++
			}
			for oi := opOff[v]; oi < opOff[v+1]; oi++ {
				op := &opBacking[oi]
				gr := op.gr
				tg := gr >> opFlagBits
				ord := p.payloadBacking[op.payOff : op.payOff+op.payLen]
				if gr&opHasOrd != 0 {
					o := ordOff[tg]
					ord = ordSpill[o : o+op.payLen]
				}
				if gr&opExtract != 0 {
					physBuf = physBuf[:0]
					for _, id := range ord {
						physBuf = append(physBuf, idPos[id])
					}
					runs = coalesceDescs(runs[:0], physBuf)
					if gr&opInsert != 0 && costmodel.RewriteWins(len(ord), len(runs)) {
						// ρ rewrite: elide the copy. The blocks keep their
						// positions; later gathers (and the tail plans below)
						// read them where they sit. A last-hop verdict from
						// the pre-pass no longer applies — nothing gathers
						// these blocks into the delivery buffer directly.
						plans[tg].insLocal, plans[tg].descCnt = -1, 0
						if isLast[tg] != 0 {
							for _, id := range ord {
								direct[id] = 0
							}
						}
						continue
					}
					plans[tg].descOff, plans[tg].descCnt = int32(len(descs)), int32(len(runs))
					descs = append(descs, runs...)
				}
				if gr&opInsert != 0 {
					plans[tg].insLocal = int32(cursor)
					for _, id := range ord {
						idPos[id] = int32(cursor)
						logIDs[cursor] = id
						cursor++
					}
				}
			}
			nodeLog[v] = int32(cursor)
			nodeDescs[v] = descs

			// Tail plans over the node's final deliveries, in final
			// arrival order (== the Reference executor's buffer order,
			// so both deliver identically ordered buffers).
			seg := survAll[finalBase[v]:finalBase[v+1]]
			sort.Slice(seg, func(a, b int) bool { return uint32(hs[seg[a]]) < uint32(hs[seg[b]]) })
			for rank, id := range seg {
				finalRank[id] = int32(rank)
			}
			physBuf = physBuf[:0]
			for _, id := range seg {
				physBuf = append(physBuf, idPos[id])
			}
			runs = coalesceDescs(runs[:0], physBuf)
			copy(tailFWC[finalBase[v]:], runs)
			tailFullCnt[v] = int32(len(runs))
			// tailResid: the deliveries not written by a last-hop gather,
			// as maximal rank-contiguous runs (ReplayInto's cleanup).
			segW, descW := int32(0), int32(0)
			for i := 0; i < len(seg); {
				if direct[seg[i]] != 0 {
					i++
					continue
				}
				start := i
				physBuf = physBuf[:0]
				for i < len(seg) && direct[seg[i]] == 0 {
					physBuf = append(physBuf, idPos[seg[i]])
					i++
				}
				runs = coalesceDescs(runs[:0], physBuf)
				copy(tailRWC[finalBase[v]+descW:], runs)
				tailSegWC[finalBase[v]+segW] = tailSeg{dstPos: int32(start), descOff: descW, descLen: int32(len(runs))}
				segW++
				descW += int32(len(runs))
			}
			tailResidSegCnt[v] = segW
			tailResidDescCnt[v] = descW

			// Restore the pooled table's all-(-1) invariant.
			for s := 0; s < cursor; s++ {
				idPos[logIDs[s]] = -1
			}
		}
		idSlotPool.Put(idPos)
	})

	// Serial compaction into the program's exact-size form: per-node
	// log regions via the descBase prefix, descriptor windows rebased
	// to absolute log positions, the per-phase rewrite/copy ledger, and
	// the bytes a descriptor replay physically moves.
	descBase := make([]int32, n+1)
	for v := 0; v < n; v++ {
		descBase[v+1] = descBase[v] + nodeLog[v]
	}
	numPhases := 0
	for si := range p.steps {
		if pi := p.steps[si].phaseIndex + 1; pi > numPhases {
			numPhases = pi
		}
	}
	if p.sc != nil {
		numPhases = len(p.sc.Phases)
	}
	p.phaseRewrites = make([]int32, numPhases)
	p.phaseCopies = make([]int32, numPhases)
	total := 0
	g = 0
	for si := range p.steps {
		ts := p.steps[si].transfers
		for ti := range ts {
			if ts[ti].payLen > 0 && plans[g].insLocal >= 0 {
				total += int(plans[g].descCnt)
			}
			g++
		}
	}
	for v := 0; v < n; v++ {
		total += int(tailFullCnt[v]) + int(tailResidDescCnt[v])
	}
	p.descBacking = make([]xdesc, 0, total)
	p.dtransfers = make([]dtransfer, numT)
	p.rewriteOnly = true
	g = 0
	for si := range p.steps {
		ps := &p.steps[si]
		ps.tBase = int32(g)
		for ti := range ps.transfers {
			pt := &ps.transfers[ti]
			dt := &p.dtransfers[g]
			if pt.payLen == 0 {
				*dt = dtransfer{insPos: -1, finalPos: -1}
				g++
				continue
			}
			pl := plans[g]
			if pl.insLocal < 0 {
				*dt = dtransfer{insPos: -1, finalPos: -1}
				p.phaseRewrites[ps.phaseIndex]++
				g++
				continue
			}
			p.phaseCopies[ps.phaseIndex]++
			off := int32(len(p.descBacking))
			for _, d := range nodeDescs[pt.src][pl.descOff : pl.descOff+pl.descCnt] {
				d.start += descBase[pt.src]
				p.descBacking = append(p.descBacking, d)
			}
			dt.descOff, dt.descLen = off, pl.descCnt
			dt.insPos = descBase[pt.dst] + pl.insLocal
			dt.finalPos = -1
			if isLast[g] != 0 {
				dt.finalPos = finalBase[pt.dst] + finalRank[firstArr[g]]
			} else {
				p.rewriteOnly = false
			}
			p.descBytes += int64(pt.payLen) * 4
			g++
		}
	}
	p.tailFullOff = make([]int32, n+1)
	p.tailFull = make([]tailSeg, 0, n)
	for v := 0; v < n; v++ {
		p.tailFullOff[v] = int32(len(p.tailFull))
		if cnt := tailFullCnt[v]; cnt > 0 {
			off := int32(len(p.descBacking))
			for _, d := range tailFWC[finalBase[v] : finalBase[v]+cnt] {
				d.start += descBase[v]
				p.descBacking = append(p.descBacking, d)
			}
			p.tailFull = append(p.tailFull, tailSeg{dstPos: 0, descOff: off, descLen: cnt})
		}
	}
	p.tailFullOff[n] = int32(len(p.tailFull))
	p.tailResidOff = make([]int32, n+1)
	totalSegs := 0
	for v := 0; v < n; v++ {
		totalSegs += int(tailResidSegCnt[v])
	}
	p.tailResid = make([]tailSeg, 0, totalSegs)
	for v := 0; v < n; v++ {
		p.tailResidOff[v] = int32(len(p.tailResid))
		base := int32(len(p.descBacking))
		for _, d := range tailRWC[finalBase[v] : finalBase[v]+tailResidDescCnt[v]] {
			d.start += descBase[v]
			p.descBacking = append(p.descBacking, d)
		}
		for _, sg := range tailSegWC[finalBase[v] : finalBase[v]+tailResidSegCnt[v]] {
			sg.descOff += base
			p.tailResid = append(p.tailResid, sg)
		}
	}
	p.tailResidOff[n] = int32(len(p.tailResid))
	p.descBase = descBase
}

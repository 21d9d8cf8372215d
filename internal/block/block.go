// Package block models the message blocks moved by an all-to-all
// personalized exchange and the per-node buffers holding them.
//
// In an N-node system, node i starts with N distinct blocks
// B[i,1..N], one for each destination, and must end with the N blocks
// B[1..N,i]. A block is identified by its (Origin, Dest) pair; its
// m-byte payload is modelled by a deterministic checksum so the
// simulators can verify data integrity without materialising payload
// bytes.
//
// Buffers are ordered: the paper's cost model charges a
// message-rearrangement step whenever the blocks a node must transmit
// are not contiguous in its data array. Buffer tracks exactly that —
// TakeIf reports whether the extraction was contiguous, and Arrange
// records an explicit rearrangement.
package block

import (
	"fmt"
	"sort"

	"torusx/internal/topology"
)

// Block is one personalized message block.
type Block struct {
	Origin topology.NodeID // the node whose data this is
	Dest   topology.NodeID // the node that must finally receive it
}

func (b Block) String() string {
	return fmt.Sprintf("B[%d,%d]", b.Origin, b.Dest)
}

// Checksum returns a deterministic payload fingerprint for b, standing
// in for the m-byte payload of the paper's model. FNV-1a over the two
// ids.
func (b Block) Checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [2]uint64{uint64(b.Origin), uint64(b.Dest)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// Buffer is one node's ordered data array of blocks.
type Buffer struct {
	blocks []Block
	// keyed and spare are SortByKey's scratch. The buffer keeps them
	// across calls, so repeated sorts of one buffer allocate nothing.
	keyed, spare []keyedBlock

	// Rearrangements counts explicit Arrange calls plus forced
	// rearrangements (non-contiguous TakeIf extractions when strict
	// accounting is enabled by the caller).
	Rearrangements int
	// RearrangedBlocks accumulates the number of blocks touched by
	// those rearrangements (the paper charges m·ρ per block moved).
	RearrangedBlocks int
}

// NewBuffer returns an empty buffer with capacity for n blocks.
func NewBuffer(n int) *Buffer {
	return &Buffer{blocks: make([]Block, 0, n)}
}

// Len returns the number of blocks held.
func (buf *Buffer) Len() int { return len(buf.blocks) }

// Reset empties the buffer and clears its rearrangement counters while
// keeping the backing array, so a reused buffer refilled with Add up to
// its original capacity allocates nothing. The compiled executor's
// replay arenas lean on this to keep steady-state replays
// allocation-free.
func (buf *Buffer) Reset() {
	buf.blocks = buf.blocks[:0]
	buf.Rearrangements = 0
	buf.RearrangedBlocks = 0
}

// Add appends blocks to the end of the array (the paper's model of a
// reception: incoming blocks land in the consumption buffer region).
func (buf *Buffer) Add(bs ...Block) {
	buf.blocks = append(buf.blocks, bs...)
}

// All returns a copy of the held blocks in array order.
func (buf *Buffer) All() []Block {
	return append([]Block(nil), buf.blocks...)
}

// View returns the underlying slice without copying. Callers must not
// mutate it.
func (buf *Buffer) View() []Block { return buf.blocks }

// Contains reports whether the buffer holds b.
func (buf *Buffer) Contains(b Block) bool {
	for _, x := range buf.blocks {
		if x == b {
			return true
		}
	}
	return false
}

// TakeIfAt removes every block satisfying pred and appends the removed
// blocks, in array order, to dst. It returns the extended dst, the
// index at which the removed run began, and whether the removed blocks
// formed one contiguous run (in which case no rearrangement would be
// needed to transmit them). Passing a previous result's dst[:0] reuses
// its memory. The relative order of remaining blocks is preserved.
// When the extraction was contiguous, inserting received blocks back
// at pos reproduces the paper's in-place data array: incoming blocks
// land in the positions vacated by outgoing ones, which is what keeps
// every later extraction contiguous too. When nothing was taken, pos
// is the buffer length (append position).
func (buf *Buffer) TakeIfAt(dst []Block, pred func(Block) bool) (taken []Block, pos int, contiguous bool) {
	first, last := -1, -1
	taken = dst
	keep := buf.blocks[:0]
	for i, b := range buf.blocks {
		if pred(b) {
			if first < 0 {
				first = i
			}
			last = i
			taken = append(taken, b)
		} else {
			keep = append(keep, b)
		}
	}
	buf.blocks = keep
	if first < 0 {
		return taken, len(buf.blocks), true
	}
	return taken, first, last-first+1 == len(taken)-len(dst)
}

// TakeIf is TakeIfAt into a new slice, without the position.
func (buf *Buffer) TakeIf(pred func(Block) bool) (taken []Block, contiguous bool) {
	taken, _, contiguous = buf.TakeIfAt(nil, pred)
	return taken, contiguous
}

// InsertAt places bs into the array starting at position pos,
// shifting later blocks right. pos must be in [0, Len()].
func (buf *Buffer) InsertAt(pos int, bs []Block) {
	if pos < 0 || pos > len(buf.blocks) {
		panic(fmt.Sprintf("block: InsertAt position %d out of range [0,%d]", pos, len(buf.blocks)))
	}
	buf.blocks = append(buf.blocks, bs...)           // grow
	copy(buf.blocks[pos+len(bs):], buf.blocks[pos:]) // shift tail right
	copy(buf.blocks[pos:], bs)
}

// CountIf returns the number of held blocks satisfying pred.
func (buf *Buffer) CountIf(pred func(Block) bool) int {
	n := 0
	for _, b := range buf.blocks {
		if pred(b) {
			n++
		}
	}
	return n
}

// Sort orders the array with the given ordering without charging a
// rearrangement. Used for the initial data-array layout, which the
// paper assumes is in place before the exchange starts.
func (buf *Buffer) Sort(less func(a, b Block) bool) {
	sort.SliceStable(buf.blocks, func(i, j int) bool {
		return less(buf.blocks[i], buf.blocks[j])
	})
}

// keyedBlock is a block paired with its sort key.
type keyedBlock struct {
	key uint64
	b   Block
}

// SortByKey stably sorts the array ascending by an integer key,
// computing each block's key exactly once. It is a least-significant-
// digit radix sort on key − min with one counting pass per byte of the
// key range, so the small keys the exchange sorts by (ring distances,
// Gray ranks) take a single pass. Its scratch belongs to the buffer.
func (buf *Buffer) SortByKey(key func(Block) int) {
	n := len(buf.blocks)
	if cap(buf.keyed) < n {
		buf.keyed = make([]keyedBlock, n)
	}
	src := buf.keyed[:n]
	lo, hi := 0, 0
	for i, b := range buf.blocks {
		k := key(b)
		if i == 0 {
			lo, hi = k, k
		}
		lo, hi = min(lo, k), max(hi, k)
		src[i] = keyedBlock{key: uint64(k), b: b}
	}
	base, span := uint64(lo), uint64(hi)-uint64(lo)
	if span == 0 {
		return
	}
	for shift := 0; ; shift += 8 {
		var count [256]int
		for _, e := range src {
			count[byte((e.key-base)>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		if span>>shift < 256 {
			// The most significant digit: scatter into the array.
			for _, e := range src {
				d := byte((e.key - base) >> shift)
				buf.blocks[count[d]] = e.b
				count[d]++
			}
			return
		}
		if cap(buf.spare) < n {
			buf.spare = make([]keyedBlock, n)
		}
		dst := buf.spare[:n]
		for _, e := range src {
			d := byte((e.key - base) >> shift)
			dst[count[d]] = e
			count[d]++
		}
		buf.keyed, buf.spare = buf.spare, buf.keyed
		src = dst
	}
}

// ArrangeByKey is SortByKey plus a charged rearrangement of every held
// block, modelling an inter-phase rearrangement step.
func (buf *Buffer) ArrangeByKey(key func(Block) int) {
	buf.SortByKey(key)
	buf.Rearrangements++
	buf.RearrangedBlocks += len(buf.blocks)
}

// Arrange sorts the array with the given ordering and charges one
// rearrangement touching every held block. This models the paper's
// inter-phase rearrangement step.
func (buf *Buffer) Arrange(less func(a, b Block) bool) {
	buf.Sort(less)
	buf.Rearrangements++
	buf.RearrangedBlocks += len(buf.blocks)
}

// ChargeRearrangement records a rearrangement of n blocks without
// changing the array, for callers that account rearrangement
// analytically rather than by sorting.
func (buf *Buffer) ChargeRearrangement(n int) {
	buf.Rearrangements++
	buf.RearrangedBlocks += n
}

// Initial builds the starting buffers of an all-to-all personalized
// exchange on t: node i holds blocks {B[i,j] : j in 0..N-1}, ordered
// by destination id.
func Initial(t *topology.Torus) []*Buffer {
	n := t.Nodes()
	bufs := make([]*Buffer, n)
	for i := 0; i < n; i++ {
		buf := NewBuffer(n)
		for j := 0; j < n; j++ {
			buf.Add(Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)})
		}
		bufs[i] = buf
	}
	return bufs
}

// TotalBlocks sums the block counts of all buffers.
func TotalBlocks(bufs []*Buffer) int {
	total := 0
	for _, b := range bufs {
		total += b.Len()
	}
	return total
}

// TotalRearrangedBlocks sums per-buffer rearranged-block counts.
func TotalRearrangedBlocks(bufs []*Buffer) int {
	total := 0
	for _, b := range bufs {
		total += b.RearrangedBlocks
	}
	return total
}

package block

import (
	"testing"
	"testing/quick"

	"torusx/internal/topology"
)

func TestChecksumDeterministicAndDistinct(t *testing.T) {
	a := Block{Origin: 1, Dest: 2}
	b := Block{Origin: 2, Dest: 1}
	if a.Checksum() != (Block{Origin: 1, Dest: 2}).Checksum() {
		t.Fatal("checksum not deterministic")
	}
	if a.Checksum() == b.Checksum() {
		t.Fatal("swapped origin/dest should differ")
	}
	seen := make(map[uint64]Block)
	for o := 0; o < 64; o++ {
		for d := 0; d < 64; d++ {
			blk := Block{Origin: topology.NodeID(o), Dest: topology.NodeID(d)}
			if prev, dup := seen[blk.Checksum()]; dup {
				t.Fatalf("checksum collision: %v and %v", prev, blk)
			}
			seen[blk.Checksum()] = blk
		}
	}
}

func TestBlockString(t *testing.T) {
	if got := (Block{Origin: 3, Dest: 7}).String(); got != "B[3,7]" {
		t.Fatalf("String = %q", got)
	}
}

func TestBufferAddLenAll(t *testing.T) {
	buf := NewBuffer(4)
	if buf.Len() != 0 {
		t.Fatal("new buffer not empty")
	}
	buf.Add(Block{0, 1}, Block{0, 2})
	buf.Add(Block{0, 3})
	if buf.Len() != 3 {
		t.Fatalf("Len = %d, want 3", buf.Len())
	}
	all := buf.All()
	if len(all) != 3 || all[0] != (Block{0, 1}) || all[2] != (Block{0, 3}) {
		t.Fatalf("All = %v", all)
	}
	all[0] = Block{9, 9}
	if buf.View()[0] != (Block{0, 1}) {
		t.Fatal("All must return a copy")
	}
	if !buf.Contains(Block{0, 2}) || buf.Contains(Block{1, 1}) {
		t.Fatal("Contains mismatch")
	}
}

func TestTakeIfContiguousSuffix(t *testing.T) {
	buf := NewBuffer(6)
	for d := 0; d < 6; d++ {
		buf.Add(Block{Origin: 0, Dest: topology.NodeID(d)})
	}
	taken, contig := buf.TakeIf(func(b Block) bool { return b.Dest >= 3 })
	if len(taken) != 3 || !contig {
		t.Fatalf("taken=%v contig=%v, want 3 contiguous", taken, contig)
	}
	if buf.Len() != 3 {
		t.Fatalf("remaining = %d, want 3", buf.Len())
	}
	for i, b := range buf.View() {
		if b.Dest != topology.NodeID(i) {
			t.Fatalf("remaining order disturbed: %v", buf.View())
		}
	}
}

func TestTakeIfNonContiguous(t *testing.T) {
	buf := NewBuffer(6)
	for d := 0; d < 6; d++ {
		buf.Add(Block{Origin: 0, Dest: topology.NodeID(d)})
	}
	taken, contig := buf.TakeIf(func(b Block) bool { return b.Dest%2 == 0 })
	if len(taken) != 3 || contig {
		t.Fatalf("taken=%v contig=%v, want 3 non-contiguous", taken, contig)
	}
}

func TestTakeIfEmptyIsContiguous(t *testing.T) {
	buf := NewBuffer(2)
	buf.Add(Block{0, 0})
	taken, contig := buf.TakeIf(func(Block) bool { return false })
	if len(taken) != 0 || !contig {
		t.Fatalf("empty take should be contiguous, got %v %v", taken, contig)
	}
}

func TestTakeIfAtPositionAndInsertRoundTrip(t *testing.T) {
	buf := NewBuffer(6)
	for d := 0; d < 6; d++ {
		buf.Add(Block{Origin: 0, Dest: topology.NodeID(d)})
	}
	// Remove the middle run [2,3].
	taken, pos, contig := buf.TakeIfAt(nil, func(b Block) bool { return b.Dest == 2 || b.Dest == 3 })
	if len(taken) != 2 || pos != 2 || !contig {
		t.Fatalf("taken=%v pos=%d contig=%v", taken, pos, contig)
	}
	// Insert replacements back at the vacated position.
	buf.InsertAt(pos, []Block{{9, 2}, {9, 3}})
	want := []Block{{0, 0}, {0, 1}, {9, 2}, {9, 3}, {0, 4}, {0, 5}}
	for i, b := range buf.View() {
		if b != want[i] {
			t.Fatalf("slot %d = %v, want %v (array %v)", i, b, want[i], buf.View())
		}
	}
}

func TestTakeIfAtEmptyPos(t *testing.T) {
	buf := NewBuffer(2)
	buf.Add(Block{0, 0}, Block{0, 1})
	taken, pos, contig := buf.TakeIfAt(nil, func(Block) bool { return false })
	if len(taken) != 0 || pos != 2 || !contig {
		t.Fatalf("taken=%v pos=%d contig=%v, want empty at end", taken, pos, contig)
	}
	buf.InsertAt(pos, []Block{{1, 1}})
	if buf.Len() != 3 || buf.View()[2] != (Block{1, 1}) {
		t.Fatalf("append-insert failed: %v", buf.View())
	}
}

func TestInsertAtFrontAndPanic(t *testing.T) {
	buf := NewBuffer(2)
	buf.Add(Block{0, 1})
	buf.InsertAt(0, []Block{{0, 0}})
	if buf.View()[0] != (Block{0, 0}) || buf.View()[1] != (Block{0, 1}) {
		t.Fatalf("front insert failed: %v", buf.View())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("InsertAt out of range should panic")
		}
	}()
	buf.InsertAt(5, []Block{{9, 9}})
}

func TestSortDoesNotCharge(t *testing.T) {
	buf := NewBuffer(3)
	buf.Add(Block{0, 2}, Block{0, 0}, Block{0, 1})
	buf.Sort(func(a, b Block) bool { return a.Dest < b.Dest })
	for i, b := range buf.View() {
		if b.Dest != topology.NodeID(i) {
			t.Fatalf("Sort failed: %v", buf.View())
		}
	}
	if buf.Rearrangements != 0 || buf.RearrangedBlocks != 0 {
		t.Fatal("Sort must not charge a rearrangement")
	}
}

func TestCountIf(t *testing.T) {
	buf := NewBuffer(8)
	for d := 0; d < 8; d++ {
		buf.Add(Block{Origin: 1, Dest: topology.NodeID(d)})
	}
	if n := buf.CountIf(func(b Block) bool { return b.Dest < 5 }); n != 5 {
		t.Fatalf("CountIf = %d, want 5", n)
	}
}

func TestArrangeSortsAndCharges(t *testing.T) {
	buf := NewBuffer(4)
	buf.Add(Block{0, 3}, Block{0, 1}, Block{0, 2}, Block{0, 0})
	buf.Arrange(func(a, b Block) bool { return a.Dest < b.Dest })
	for i, b := range buf.View() {
		if b.Dest != topology.NodeID(i) {
			t.Fatalf("not sorted: %v", buf.View())
		}
	}
	if buf.Rearrangements != 1 || buf.RearrangedBlocks != 4 {
		t.Fatalf("charges = %d/%d, want 1/4", buf.Rearrangements, buf.RearrangedBlocks)
	}
	buf.ChargeRearrangement(10)
	if buf.Rearrangements != 2 || buf.RearrangedBlocks != 14 {
		t.Fatalf("ChargeRearrangement: %d/%d", buf.Rearrangements, buf.RearrangedBlocks)
	}
}

func TestSortByKeyMatchesSort(t *testing.T) {
	mk := func() *Buffer {
		buf := NewBuffer(16)
		for _, d := range []int{9, 3, 7, 3, 1, 14, 0, 7} {
			buf.Add(Block{Origin: 1, Dest: topology.NodeID(d)})
		}
		return buf
	}
	a, b := mk(), mk()
	a.SortByKey(func(blk Block) int { return int(blk.Dest) })
	b.Sort(func(x, y Block) bool { return x.Dest < y.Dest })
	for i := range a.View() {
		if a.View()[i] != b.View()[i] {
			t.Fatalf("slot %d: SortByKey %v vs Sort %v", i, a.View()[i], b.View()[i])
		}
	}
	if a.Rearrangements != 0 {
		t.Fatal("SortByKey must not charge")
	}
}

func TestSortByKeyStability(t *testing.T) {
	buf := NewBuffer(4)
	// Equal keys: original order of origins must be preserved.
	buf.Add(Block{Origin: 3, Dest: 5}, Block{Origin: 1, Dest: 5}, Block{Origin: 2, Dest: 5})
	buf.SortByKey(func(Block) int { return 0 })
	want := []topology.NodeID{3, 1, 2}
	for i, b := range buf.View() {
		if b.Origin != want[i] {
			t.Fatalf("stability broken: %v", buf.View())
		}
	}
}

// Property: SortByKey orders like a stable comparator sort for any
// int keys, including negative keys and ranges that need several
// radix passes.
func TestSortByKeyMatchesStableSortProperty(t *testing.T) {
	f := func(keys []int64, shift uint8) bool {
		key := func(b Block) int { return int(keys[b.Dest] >> (shift % 64)) }
		mk := func() *Buffer {
			buf := NewBuffer(len(keys))
			for i := range keys {
				buf.Add(Block{Origin: topology.NodeID(i % 3), Dest: topology.NodeID(i)})
			}
			return buf
		}
		a, b := mk(), mk()
		a.SortByKey(key)
		b.Sort(func(x, y Block) bool { return key(x) < key(y) })
		for i := range a.View() {
			if a.View()[i] != b.View()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// SortByKey keeps its scratch in the buffer: once a buffer has been
// sorted, sorting it again allocates nothing, for one-pass and
// multi-pass key ranges alike.
func TestSortByKeyReusesScratch(t *testing.T) {
	buf := NewBuffer(4096)
	for i := 0; i < 4096; i++ {
		buf.Add(Block{Origin: topology.NodeID(i % 64), Dest: topology.NodeID((i * 7) % 4096)})
	}
	for _, key := range []func(Block) int{
		func(b Block) int { return int(b.Dest) % 4 },
		func(b Block) int { return -int(b.Dest) },
	} {
		buf.SortByKey(key)
		if allocs := testing.AllocsPerRun(10, func() { buf.SortByKey(key) }); allocs != 0 {
			t.Fatalf("SortByKey allocated %.0f times per call on a sorted-before buffer", allocs)
		}
	}
}

// TakeIfAt appends to dst and judges contiguity on the appended blocks
// alone, so a caller can reuse one send slice across steps.
func TestTakeIfAtAppendsToDst(t *testing.T) {
	buf := NewBuffer(6)
	for d := 0; d < 6; d++ {
		buf.Add(Block{Origin: 0, Dest: topology.NodeID(d)})
	}
	dst := make([]Block, 1, 8)
	dst[0] = Block{7, 7}
	taken, pos, contig := buf.TakeIfAt(dst, func(b Block) bool { return b.Dest == 1 || b.Dest == 2 })
	if want := []Block{{7, 7}, {0, 1}, {0, 2}}; len(taken) != 3 || taken[0] != want[0] || taken[1] != want[1] || taken[2] != want[2] {
		t.Fatalf("taken = %v, want %v", taken, want)
	}
	if pos != 1 || !contig || &taken[0] != &dst[0] {
		t.Fatalf("pos=%d contig=%v reused=%v", pos, contig, &taken[0] == &dst[0])
	}
	taken, _, contig = buf.TakeIfAt(taken[:0], func(b Block) bool { return b.Dest == 0 || b.Dest == 5 })
	if len(taken) != 2 || contig || &taken[0] != &dst[0] {
		t.Fatalf("taken=%v contig=%v, want a non-contiguous take into the reused slice", taken, contig)
	}
}

func TestArrangeByKeyCharges(t *testing.T) {
	buf := NewBuffer(3)
	buf.Add(Block{0, 2}, Block{0, 0}, Block{0, 1})
	buf.ArrangeByKey(func(b Block) int { return int(b.Dest) })
	for i, b := range buf.View() {
		if b.Dest != topology.NodeID(i) {
			t.Fatalf("not sorted: %v", buf.View())
		}
	}
	if buf.Rearrangements != 1 || buf.RearrangedBlocks != 3 {
		t.Fatalf("charges = %d/%d, want 1/3", buf.Rearrangements, buf.RearrangedBlocks)
	}
}

func TestInitialDistribution(t *testing.T) {
	tor := topology.MustNew(4, 4)
	bufs := Initial(tor)
	if len(bufs) != 16 {
		t.Fatalf("buffers = %d, want 16", len(bufs))
	}
	for i, buf := range bufs {
		if buf.Len() != 16 {
			t.Fatalf("node %d holds %d blocks, want 16", i, buf.Len())
		}
		for j, b := range buf.View() {
			want := Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)}
			if b != want {
				t.Fatalf("node %d slot %d = %v, want %v", i, j, b, want)
			}
		}
	}
	if TotalBlocks(bufs) != 256 {
		t.Fatalf("TotalBlocks = %d, want 256", TotalBlocks(bufs))
	}
	if TotalRearrangedBlocks(bufs) != 0 {
		t.Fatal("fresh buffers should have no rearrangements")
	}
}

// Property: TakeIf partitions the buffer — every block ends up exactly
// once in either taken or remaining, and taken order is stable.
func TestTakeIfPartitionProperty(t *testing.T) {
	f := func(dests []uint8, threshold uint8) bool {
		buf := NewBuffer(len(dests))
		for _, d := range dests {
			buf.Add(Block{Origin: 0, Dest: topology.NodeID(d)})
		}
		before := buf.All()
		taken, _ := buf.TakeIf(func(b Block) bool { return uint8(b.Dest) < threshold })
		if len(taken)+buf.Len() != len(before) {
			return false
		}
		// Merge taken and remaining back by the predicate, preserving order.
		ti, ri := 0, 0
		for _, b := range before {
			if uint8(b.Dest) < threshold {
				if ti >= len(taken) || taken[ti] != b {
					return false
				}
				ti++
			} else {
				if ri >= buf.Len() || buf.View()[ri] != b {
					return false
				}
				ri++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

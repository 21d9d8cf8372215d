package exec

import (
	"testing"

	"torusx/internal/block"
	"torusx/internal/topology"
)

func TestFullTrafficContent(t *testing.T) {
	tor := topology.MustNew(2, 2)
	got := FullTraffic(tor)
	if len(got) != 16 {
		t.Fatalf("FullTraffic(2x2) has %d blocks, want 16", len(got))
	}
	seen := map[block.Block]bool{}
	for _, b := range got {
		if seen[b] {
			t.Fatalf("duplicate block %v", b)
		}
		seen[b] = true
	}
	// The result is the caller's to mutate: a later call must not see
	// the change.
	got[0] = block.Block{Origin: 3, Dest: 3}
	again := FullTraffic(tor)
	if again[0] != (block.Block{Origin: 0, Dest: 0}) {
		t.Fatal("mutating FullTraffic's result changed a later call's matrix")
	}
}

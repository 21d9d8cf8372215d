package exec

import (
	"torusx/internal/block"
	"torusx/internal/topology"
)

// FullTraffic returns the all-to-all traffic matrix on f: one block
// from every node to every node (self included, matching the paper's
// data-array model where B[i,i] stays in place), in origin-major
// order. Each call builds a fresh matrix the caller may mutate.
func FullTraffic(f topology.Fabric) []block.Block {
	n := f.Nodes()
	traffic := make([]block.Block, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			traffic = append(traffic, block.Block{Origin: topology.NodeID(i), Dest: topology.NodeID(j)})
		}
	}
	return traffic
}

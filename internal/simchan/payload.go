package simchan

import (
	"fmt"

	"torusx/internal/topology"
)

// RunPayload executes the exchange carrying data[i][j] (the payload
// node i holds for node j) and returns out[i][j] = data[j][i], along
// with the block-level result. It runs the same SPMD program as Run:
// each payload is bound to the identity of its block, and node v's
// output row is read off the blocks v holds when the program ends,
// out[v][b.Origin] = data[b.Origin][b.Dest]. A correct output therefore
// depends on correct delivery, which verify.Delivered checks on the
// returned buffers. No payload byte is copied: out[i][j] shares its
// backing array with data[j][i].
func RunPayload(t *topology.Torus, data [][][]byte) (*Result, [][][]byte, error) {
	n := t.Nodes()
	if len(data) != n {
		return nil, nil, fmt.Errorf("simchan: %d payload rows for %d nodes", len(data), n)
	}
	for i, row := range data {
		if len(row) != n {
			return nil, nil, fmt.Errorf("simchan: node %d has %d payloads, want %d", i, len(row), n)
		}
	}
	res, err := Run(t)
	if err != nil {
		return nil, nil, err
	}
	out := make([][][]byte, n)
	cells := make([][]byte, n*n)
	for v, buf := range res.Buffers {
		row := cells[v*n : (v+1)*n : (v+1)*n]
		for _, b := range buf.View() {
			row[b.Origin] = data[b.Origin][b.Dest]
		}
		out[v] = row
	}
	return res, out, nil
}

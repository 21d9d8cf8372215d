package simchan

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"torusx/internal/topology"
	"torusx/internal/verify"
)

func payloadFor(i, j int) []byte {
	return []byte(fmt.Sprintf("data %d->%d", i, j))
}

// payloads returns the n×n input whose cell [i][j] is fill(i, j).
func payloads(n int, fill func(i, j int) []byte) [][][]byte {
	data := make([][][]byte, n)
	for i := range data {
		data[i] = make([][]byte, n)
		for j := range data[i] {
			data[i][j] = fill(i, j)
		}
	}
	return data
}

func TestRunPayloadCarriesData(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}} {
		tor := topology.MustNew(dims...)
		n := tor.Nodes()
		res, out, err := RunPayload(tor, payloads(n, payloadFor))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := verify.Delivered(res.Torus, res.Buffers); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !bytes.Equal(out[i][j], payloadFor(j, i)) {
					t.Fatalf("%v: out[%d][%d] = %q, want %q", dims, i, j, out[i][j], payloadFor(j, i))
				}
			}
		}
	}
}

func TestRunPayloadValidation(t *testing.T) {
	tor := topology.MustNew(8, 8)
	if _, _, err := RunPayload(tor, nil); err == nil {
		t.Fatal("nil data should fail")
	}
	bad := make([][][]byte, tor.Nodes())
	for i := range bad {
		bad[i] = make([][]byte, 2)
	}
	if _, _, err := RunPayload(tor, bad); err == nil {
		t.Fatal("ragged data should fail")
	}
	if _, _, err := RunPayload(topology.MustNew(10, 4), nil); err == nil {
		t.Fatal("invalid torus should fail")
	}
	odd := topology.MustNew(10, 4)
	if _, _, err := RunPayload(odd, payloads(odd.Nodes(), payloadFor)); err == nil {
		t.Fatal("invalid torus with well-formed data should fail")
	}
}

func TestRunPayloadNilPayloadsAllowed(t *testing.T) {
	// Nil payloads are legal (zero-length data) and still route.
	tor := topology.MustNew(4, 4)
	res, out, err := RunPayload(tor, payloads(tor.Nodes(), func(int, int) []byte { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Delivered(res.Torus, res.Buffers); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		for j := range out[i] {
			if out[i][j] != nil {
				t.Fatalf("out[%d][%d] = %v, want nil", i, j, out[i][j])
			}
		}
	}
}

// maxRunPayloadBytes bounds the bytes one 16×16 RunPayload allocates:
// about 5 MB measured (buffers, sort scratch, send slices and the
// output rows) plus margin. A per-hop payload map, or sort and send
// slices allocated afresh every step, cost over 35 MB per run here.
const maxRunPayloadBytes = 10 << 20

func TestRunPayloadAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	tor := topology.MustNew(16, 16)
	data := payloads(tor.Nodes(), func(int, int) []byte { return make([]byte, 64) })
	run := func() {
		if _, _, err := RunPayload(tor, data); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("16x16 RunPayload: %.1f MB and %d allocations per run", float64(perRun)/(1<<20), (after.Mallocs-before.Mallocs)/runs)
	if perRun > maxRunPayloadBytes {
		t.Fatalf("16x16 RunPayload allocated %.1f MB per run, bound %.1f MB", float64(perRun)/(1<<20), float64(maxRunPayloadBytes)/(1<<20))
	}
}

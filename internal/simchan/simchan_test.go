package simchan

import (
	"slices"
	"sync"
	"testing"

	"torusx/internal/exchange"
	"torusx/internal/topology"
	"torusx/internal/verify"
)

func TestRunRejectsInvalidTori(t *testing.T) {
	if _, err := Run(topology.MustNew(16)); err == nil {
		t.Fatal("1D should be rejected")
	}
	if _, err := Run(topology.MustNew(10, 8)); err == nil {
		t.Fatal("non-multiple-of-four should be rejected")
	}
}

func TestConcurrentRunDelivers(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}, {12, 12}, {8, 8, 8}, {8, 8, 4, 4}} {
		res, err := Run(topology.MustNew(dims...))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := verify.Conservation(res.Torus, res.Buffers); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := verify.Delivered(res.Torus, res.Buffers); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

// The concurrent program and the lock-step executor must leave every
// node with the same data array, element for element, and the payload
// run must move exactly the blocks and messages of the plain run.
func TestAgreesWithLockStepExecutor(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}, {16, 16}, {8, 8, 8}, {8, 8, 4}} {
		tor := topology.MustNew(dims...)
		conc, err := Run(tor)
		if err != nil {
			t.Fatal(err)
		}
		lock, err := exchange.Run(topology.MustNew(dims...), exchange.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pay, _, err := RunPayload(tor, payloads(tor.Nodes(), payloadFor))
		if err != nil {
			t.Fatal(err)
		}
		if pay.MessagesSent != conc.MessagesSent {
			t.Fatalf("%v: RunPayload sent %d messages, Run %d", dims, pay.MessagesSent, conc.MessagesSent)
		}
		for i := range conc.Buffers {
			if !slices.Equal(conc.Buffers[i].View(), lock.Buffers[i].View()) {
				t.Fatalf("%v: node %d data arrays differ between backends", dims, i)
			}
			if !slices.Equal(pay.Buffers[i].View(), conc.Buffers[i].View()) {
				t.Fatalf("%v: node %d data arrays differ between RunPayload and Run", dims, i)
			}
		}
	}
}

func TestMessageCount(t *testing.T) {
	// 8x8: group phases: each node active s <= ringLen-1 = 1 step per
	// phase -> 2 messages; quad 2; bit 2. Total 6 per node x 64 nodes.
	res, err := Run(topology.MustNew(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * 64; res.MessagesSent != want {
		t.Fatalf("MessagesSent = %d, want %d", res.MessagesSent, want)
	}
}

func TestBarrier(t *testing.T) {
	const parties = 8
	const rounds = 50
	b := newBarrier(parties)
	var mu sync.Mutex
	counts := make([]int, rounds)
	var wg sync.WaitGroup
	wg.Add(parties)
	for p := 0; p < parties; p++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				counts[r]++
				// No party may be a full round ahead.
				if r > 0 && counts[r-1] != parties {
					t.Errorf("round %d entered before round %d completed", r, r-1)
				}
				mu.Unlock()
				b.wait()
			}
		}()
	}
	wg.Wait()
	for r, c := range counts {
		if c != parties {
			t.Fatalf("round %d saw %d parties", r, c)
		}
	}
}

func TestRaceSmall(t *testing.T) {
	// Small shape exercised repeatedly; meaningful under -race.
	for i := 0; i < 10; i++ {
		res, err := Run(topology.MustNew(8, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Delivered(res.Torus, res.Buffers); err != nil {
			t.Fatal(err)
		}
	}
}

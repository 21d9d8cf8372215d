// Package par is the deterministic fan-out layer behind the executor
// and the simulators. Every helper here is shaped around one rule: the
// partition of work depends only on the input sizes and keys, never on
// goroutine scheduling, so per-shard results can be reduced in shard
// order and the merged outcome is bit-identical to a serial
// left-to-right walk. internal/exec shards schedule steps and nodes at
// compile time; internal/wormhole and internal/packetsim shard messages by
// link-disjoint component; internal/eventsim shards transfers by
// endpoint and nodes by index.
//
// A panic in a worker goroutine does not crash the process: the fan-out
// helpers recover it, wait for the other workers, and re-panic with the
// same value on the caller's goroutine, where the caller's own deferred
// recover (e.g. the program cache's compile guard) can turn it into an
// error.
package par

import (
	"runtime"
	"sync"
)

// Workers returns the default pool width: the process's GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Normalize resolves a requested worker count against n work items:
// zero or negative means Workers(), and the result is clamped to
// [1, n] so no shard is empty.
func Normalize(workers, n int) int {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach partitions [0, n) into at most workers contiguous chunks and
// calls fn(lo, hi) once per chunk, concurrently, returning when every
// chunk has finished. fn must only touch state owned by its own index
// range. Chunk boundaries depend only on (n, workers), so per-chunk
// partial results can be reduced in chunk order deterministically.
// With one worker (or one chunk) fn runs inline on the caller's
// goroutine. A panic in fn re-panics on the caller's goroutine once
// every chunk has returned.
func ForEach(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Normalize(workers, n)
	chunk := (n + workers - 1) / workers
	if chunk >= n {
		fn(0, n)
		return
	}
	var g group
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		g.Go(func() { fn(lo, hi) })
	}
	g.Wait()
}

// group runs goroutines and joins them, carrying the first panic any
// of them raised back to the goroutine that calls Wait.
type group struct {
	wg       sync.WaitGroup
	once     sync.Once
	panicked bool
	value    any
}

// Go runs fn on a new goroutine, recovering a panic from it.
func (g *group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.once.Do(func() { g.panicked, g.value = true, r })
			}
		}()
		fn()
	}()
}

// Wait blocks until every goroutine has returned, then re-panics with
// the first recovered value, if any.
func (g *group) Wait() {
	g.wg.Wait()
	if g.panicked {
		panic(g.value)
	}
}

// Buckets partitions the indices [0, n) into at most workers buckets
// by key(i) mod workers, preserving ascending index order inside each
// bucket. Indices with equal keys always land in the same bucket, so
// per-key sequential semantics survive the fan-out — e.g. every
// transfer sent by one node stays on one worker, in schedule order.
// Buckets may be empty; the partition depends only on (workers, n,
// keys).
func Buckets(workers, n int, key func(i int) int) [][]int {
	workers = Normalize(workers, n)
	buckets := make([][]int, workers)
	for i := 0; i < n; i++ {
		k := key(i) % workers
		if k < 0 {
			k += workers
		}
		buckets[k] = append(buckets[k], i)
	}
	return buckets
}

// RunBuckets runs fn(i) for every index of every bucket: buckets run
// concurrently with each other, indices within a bucket sequentially
// in slice order. A single non-empty bucket runs inline. A panic in fn
// re-panics on the caller's goroutine once every bucket has returned.
func RunBuckets(buckets [][]int, fn func(i int)) {
	nonEmpty := 0
	last := -1
	for b, idx := range buckets {
		if len(idx) > 0 {
			nonEmpty++
			last = b
		}
	}
	if nonEmpty == 0 {
		return
	}
	if nonEmpty == 1 {
		for _, i := range buckets[last] {
			fn(i)
		}
		return
	}
	var g group
	for _, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		g.Go(func() {
			for _, i := range idx {
				fn(i)
			}
		})
	}
	g.Wait()
}

// Components groups the items [0, n) into sets that transitively share
// a resource key — e.g. wormhole messages sharing a physical link —
// via a union-find over the keys each item touches. Items in different
// components share no key, so they can be simulated independently.
// Components are ordered by their smallest member and each lists its
// members in ascending order, making downstream merges deterministic.
func Components[K comparable](n int, keysOf func(i int) []K) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Union by smaller root, so every root is its component's smallest
	// member.
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}
	owner := make(map[K]int)
	for i := 0; i < n; i++ {
		for _, k := range keysOf(i) {
			if o, ok := owner[k]; ok {
				union(o, i)
			} else {
				owner[k] = i
			}
		}
	}
	members := make(map[int][]int, n)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if len(members[r]) == 0 {
			roots = append(roots, r) // ascending: r == min member == first seen
		}
		members[r] = append(members[r], i)
	}
	groups := make([][]int, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, members[r])
	}
	return groups
}

// FirstError collects errors reported from concurrent shards and keeps
// the one with the smallest index — the error a serial left-to-right
// walk would have hit first, independent of scheduling.
type FirstError struct {
	mu  sync.Mutex
	idx int
	err error
}

// Report records err as occurring at index idx; nil errors are
// ignored. Safe for concurrent use.
func (e *FirstError) Report(idx int, err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil || idx < e.idx {
		e.idx, e.err = idx, err
	}
}

// Err returns the lowest-indexed reported error, or nil.
func (e *FirstError) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Index returns the index of the error returned by Err (undefined when
// Err is nil).
func (e *FirstError) Index() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.idx
}

package exec

import (
	"sync/atomic"

	"torusx/internal/obs"
)

// Process-wide observability of the executor's shared state: the
// arena pool's acquire/release traffic and the compiled replays' work,
// exported as pull-based metrics on the default obs registry.
// Registration happens once at init; the hooks read live atomics only
// when a dump or scrape asks, so the replay paths stay untouched.

// arenaAcquires and arenaReleases count AcquireArena/ReleaseArena
// calls across every program in the process; a widening gap means
// arenas are being dropped (error-poisoned runs) or leaked instead of
// pooled.
var arenaAcquires, arenaReleases atomic.Int64

// Replay counters, bumped once per successful compiled replay
// (noteReplay — plain atomic adds, so the guarded replay paths stay
// allocation-free): replays run, the bytes they physically moved, and
// the descriptor plan's rewrite/copy decisions they executed under.
var (
	replayDescRuns   atomic.Int64
	replayBytesMoved atomic.Int64
	replayRewrites   atomic.Int64
	replayCopies     atomic.Int64
)

// noteReplay records one successful compiled replay on the process
// counters.
func noteReplay(p *Program) {
	replayDescRuns.Add(1)
	replayBytesMoved.Add(p.descBytes)
	var rw, cp int64
	for _, c := range p.phaseRewrites {
		rw += int64(c)
	}
	for _, c := range p.phaseCopies {
		cp += int64(c)
	}
	replayRewrites.Add(rw)
	replayCopies.Add(cp)
}

func init() {
	reg := obs.Default()
	reg.CounterFunc("exec.arena.acquires", arenaAcquires.Load)
	reg.CounterFunc("exec.arena.releases", arenaReleases.Load)
	reg.CounterFunc("exec.replay.desc_runs", replayDescRuns.Load)
	reg.CounterFunc("exec.replay.bytes_moved", replayBytesMoved.Load)
	reg.CounterFunc("exec.replay.rewrites", replayRewrites.Load)
	reg.CounterFunc("exec.replay.copies", replayCopies.Load)
}

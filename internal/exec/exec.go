// Package exec is the shared executor of the schedule IR: every
// algorithm in this repository — the proposed Suh–Shin exchange, the
// Direct/Ring/Factored/LogTime baselines and the collectives — lowers
// to a schedule.Schedule, and this package is the single place that
//
//   - checks every step against the one-port model and, for steps not
//     declared Shared, wormhole contention-freedom (link-disjointness,
//     expanding every transfer's route hop by hop);
//   - replays the block movement of payload-annotated schedules and
//     verifies delivery against the declared traffic matrix;
//   - derives a costmodel.Measure uniformly: startups from the step
//     count, transmission from the per-step maximum message size
//     multiplied by the step's link-sharing serialization factor
//     (Shared steps), propagation from the per-step maximum route
//     length, and rearrangement from the per-phase annotations.
//
// There is one executor with one replay loop: Compile validates a
// schedule once and lowers it to a Program, whose runs replay a
// strided-descriptor plan step by step, each step's transfers in
// schedule order (see program.go and descriptor.go). That is the
// Reference's semantics, so the two accept exactly the same schedules,
// including ones that forward a block within the step that delivered
// it. Run is the one-shot form, Compile followed by Program.Run, so the
// baselines, the collectives and the proposed exchange are all checked
// and measured by the same code — which is what makes the paper's
// Table 2 comparison apples-to-apples.
//
// Reference is the slow serial oracle: it walks the schedule step by
// step over block.Buffers, with none of Compile's lowering. Only tests
// call it; the differential tests hold every compiled replay to it.
package exec

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/obs"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/verify"
)

// Options configures a run.
type Options struct {
	// Traffic declares the traffic matrix the schedule must deliver:
	// one block per (origin, dest) pair. Nil means the full all-to-all
	// matrix (every node sends one block to every node, itself
	// included), which is what the four exchange algorithms carry.
	Traffic []block.Block
	// SkipChecks disables the per-step one-port and contention
	// validation (for schedules already checked by their builder).
	SkipChecks bool
	// Telemetry receives the run's span events, counters and per-link
	// gauges (see internal/telemetry). Nil disables telemetry entirely:
	// the executor takes exactly the uninstrumented code path behind a
	// single branch, which the overhead guard benchmarks.
	Telemetry *telemetry.Recorder
	// Request, when non-nil, receives wall-clock pipeline stage spans
	// ("replay" here; "plan"/"compile"/"cache-lookup" upstream in
	// internal/algorithm and internal/progcache — see internal/obs).
	// Nil is the disabled state and costs the replay path nothing,
	// same contract as Telemetry.
	Request *obs.Request
}

// Result is the outcome of executing a schedule.
type Result struct {
	Schedule *schedule.Schedule
	// Measure is the uniformly derived cost-model measurement.
	Measure costmodel.Measure
	// Replayed reports whether the schedule carried payloads and its
	// block movement was replayed and delivery-verified.
	Replayed bool
	// Buffers holds each node's final blocks after a replay (nil for
	// structural-only runs).
	Buffers []*block.Buffer
	// MaxSharing is the largest link-sharing serialization factor of
	// any step (1 for fully contention-free schedules).
	MaxSharing int
	// BytesMoved is the bytes a compiled replay physically copied
	// through the arena: its descriptor gathers, ρ rewrites costing
	// nothing. Zero for Reference and structural-only runs, which don't
	// measure it.
	BytesMoved int64
}

// Run executes sc once: Compile(sc, opt), then Program.Run(opt). It
// validates every step, replays block movement when the schedule
// carries payloads, verifies delivery, and derives the cost measure.
// Callers that run one schedule many times compile it once and replay
// the Program instead.
func Run(sc *schedule.Schedule, opt Options) (*Result, error) {
	pg, err := Compile(sc, opt)
	if err != nil {
		return nil, err
	}
	return pg.Run(opt)
}

// Reference is the serial reference executor and the differential
// oracle of the compiled one: one goroutine, steps walked strictly in
// order, each transfer's payload moved between block.Buffers by
// membership test. It honours Traffic, SkipChecks and Telemetry and
// ignores Request. Only tests call it.
func Reference(sc *schedule.Schedule, opt Options) (*Result, error) {
	if sc == nil || sc.Fabric == nil {
		return nil, fmt.Errorf("exec: nil schedule")
	}
	f := sc.Fabric
	res := &Result{Schedule: sc, MaxSharing: 1}
	// Replay whenever any transfer carries payload: a partially
	// annotated schedule is a builder bug, and the per-transfer
	// payload/Blocks check below reports it rather than silently
	// degrading to a structural run.
	replay := false
	sc.EachStep(func(_ *schedule.Phase, _ int, s *schedule.Step) {
		for i := range s.Transfers {
			if len(s.Transfers[i].Payload) > 0 {
				replay = true
			}
		}
	})

	// The buffers are the single source of truth for which node holds
	// which block: membership is tested against the buffers themselves
	// (TakeIf extraction counts), not a shadow index. The old held-map
	// bookkeeping duplicated every insert and delete only to answer
	// questions the buffers already answer — and could only ever drift
	// from them through a bug of its own.
	var bufs []*block.Buffer
	if replay {
		traffic := opt.Traffic
		if traffic == nil {
			traffic = FullTraffic(f)
		}
		n := f.Nodes()
		perOrigin := make([]int, n)
		seen := make(map[block.Block]bool, len(traffic))
		for _, b := range traffic {
			if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
				return nil, fmt.Errorf("exec: traffic block %v out of range", b)
			}
			if seen[b] {
				return nil, fmt.Errorf("exec: duplicate traffic block %v", b)
			}
			seen[b] = true
			perOrigin[b.Origin]++
		}
		bufs = make([]*block.Buffer, n)
		for i := range bufs {
			bufs[i] = block.NewBuffer(perOrigin[i])
		}
		for _, b := range traffic {
			bufs[b.Origin].Add(b)
		}
		// Keep the declared matrix for the final verification.
		opt.Traffic = traffic
	}

	var firstErr error
	sc.EachStep(func(p *schedule.Phase, si int, s *schedule.Step) {
		if firstErr != nil {
			return
		}
		// (1) Validity: one-port always; link-disjointness unless the
		// step declares link time-sharing.
		if !opt.SkipChecks {
			var err error
			if s.Shared {
				err = schedule.CheckStepOnePort(p.Name, si, s)
			} else {
				err = schedule.CheckStep(f, p.Name, si, s)
			}
			if err != nil {
				firstErr = err
				return
			}
		}
		// (2) Cost: a step lasts as long as its largest message,
		// serialized by the worst per-link sharing when links are
		// time-shared.
		sharing := 1
		if s.Shared {
			sharing = s.SharingFactor(f)
			if sharing > res.MaxSharing {
				res.MaxSharing = sharing
			}
		}
		res.Measure.Steps++
		res.Measure.Blocks += s.MaxBlocks() * sharing
		res.Measure.Hops += s.MaxHops()
		// (3) Replay: move each transfer's payload from its source
		// buffer to its destination buffer, insisting the sender
		// actually holds every block it claims to transmit.
		if !replay {
			return
		}
		for _, tr := range s.Transfers {
			if len(tr.Payload) != tr.Blocks {
				firstErr = fmt.Errorf("exec: phase %q step %d transfer %v carries %d payload blocks, declares %d",
					p.Name, si, tr, len(tr.Payload), tr.Blocks)
				return
			}
			src, dst := tr.Src, tr.Dst
			want := make(map[block.Block]int, len(tr.Payload))
			for _, b := range tr.Payload {
				want[b]++
			}
			moved, _ := bufs[src].TakeIf(func(b block.Block) bool { return want[b] > 0 })
			if len(moved) != len(tr.Payload) {
				// The extraction came up short, so some payload block was
				// not in the source buffer; name the first one in payload
				// order. (A duplicated payload entry lands here too: the
				// buffer holds each block at most once.)
				for _, b := range moved {
					want[b]--
				}
				for _, b := range tr.Payload {
					if want[b] > 0 {
						firstErr = fmt.Errorf("exec: phase %q step %d: node %d transmits %v it does not hold",
							p.Name, si, src, b)
						return
					}
				}
				firstErr = fmt.Errorf("exec: phase %q step %d: node %d extracted %d blocks, want %d",
					p.Name, si, src, len(moved), len(tr.Payload))
				return
			}
			bufs[dst].Add(moved...)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	res.Measure.RearrangedBlocks = sc.RearrangedBlocks()
	if replay {
		if err := verify.DeliveredMatrix(f, bufs, opt.Traffic); err != nil {
			return nil, err
		}
		res.Replayed = true
		res.Buffers = bufs
	}
	if opt.Telemetry.Enabled() {
		emitRun(opt.Telemetry, sc, res, nil)
	}
	return res, nil
}

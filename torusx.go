// Package torusx implements the all-to-all personalized exchange
// (complete exchange) algorithms of Y.-J. Suh and K. G. Shin,
// "Efficient All-to-All Personalized Exchange in Multidimensional
// Torus Networks" (ICPP 1998), together with the simulation,
// verification and cost-model machinery needed to reproduce the
// paper's evaluation.
//
// The core entry points are:
//
//   - NewTorus:            construct an n-dimensional torus.
//   - AllToAll:            run the proposed n+2-phase exchange on a
//     lock-step simulator with link-contention and one-port checking,
//     returning measured costs in the paper's units.
//   - AllToAllConcurrent:  run the same exchange as a goroutine-per-node
//     SPMD program communicating over channels.
//   - AllToAllArbitrary:   run on tori whose dimensions are not
//     multiples of four, via the paper's virtual-node extension.
//   - AllToAllSparse:      route an arbitrary traffic matrix through
//     the same schedule.
//   - ExchangeData:        deliver real per-pair payloads through the
//     concurrent SPMD simulation; each payload travels with its block
//     and no byte is copied.
//   - ScheduleFor:         build and verify the full schedule without
//     simulating data (scales to tens of thousands of nodes).
//   - Predict/Completion:  the closed-form cost model of Table 1 and
//     the machine-parameter completion-time conversion.
//   - Compare:             measured costs of the executable baselines
//     (Direct, Ring, Factored, LogTime) next to the proposed
//     algorithm, every one lowered to the schedule IR and run through
//     the same executor (internal/algorithm + internal/exec).
//   - Broadcast, Scatter, Gather, AllGather, AllReduce (collectives.go):
//     the sibling collectives on the same substrate.
//
// Tori must have at least two dimensions, sizes sorted non-increasing
// (a1 >= a2 >= ... >= an); AllToAll additionally requires every size
// to be a multiple of four (use AllToAllArbitrary otherwise).
package torusx

import (
	"fmt"

	"torusx/internal/algorithm"
	"torusx/internal/block"
	"torusx/internal/costmodel"
	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/simchan"
	"torusx/internal/topology"
	"torusx/internal/trace"
	"torusx/internal/verify"
)

// Torus is an n-dimensional wrap-around network; see NewTorus.
type Torus = topology.Torus

// CostParams are the machine parameters of the performance model
// (startup, per-byte transmission, per-hop propagation, per-byte
// rearrangement, block size).
type CostParams = costmodel.Params

// Measure is a cost-model measurement: startups, transmitted blocks
// along the critical node, propagation hops and rearranged blocks.
type Measure = costmodel.Measure

// Schedule is the structural phase/step/transfer representation of a
// run, checkable for contention-freedom.
type Schedule = schedule.Schedule

// NewTorus constructs a torus with the given per-dimension sizes.
func NewTorus(dims ...int) (*Torus, error) { return topology.New(dims...) }

// T3DParams returns Cray T3D-class machine parameters with block size
// m bytes.
func T3DParams(m int) CostParams { return costmodel.T3D(m) }

// LowStartupParams returns parameters with hardware-assisted message
// initiation, for exploring the crossover against the minimum-startup
// algorithm [9].
func LowStartupParams(m int) CostParams { return costmodel.LowStartup(m) }

// Report is the outcome of a verified exchange run.
type Report struct {
	Dims    []int
	Nodes   int
	Phases  int
	Measure Measure
	// NonContiguousSends counts transmissions that were not one
	// contiguous run of the sender's data array (zero in 2D; see
	// EXPERIMENTS.md for the n >= 3 finding).
	NonContiguousSends int
	// MessagesSent is filled by the concurrent backend only.
	MessagesSent int

	sched *Schedule
}

// Schedule returns the recorded communication schedule of the run
// (nil for the concurrent backend, which records no global schedule).
func (r *Report) Schedule() *Schedule { return r.sched }

// Summary renders a per-step overview of the run's schedule.
func (r *Report) Summary() string {
	if r.sched == nil {
		return "(no schedule recorded)"
	}
	return trace.Summary(r.sched)
}

// Completion converts the report's measured costs into wall-clock
// microseconds under the given machine parameters.
func (r *Report) Completion(p CostParams) float64 { return p.Completion(r.Measure) }

func reportFrom(res *exchange.Result) *Report {
	return &Report{
		Dims:   res.Torus.Dims(),
		Nodes:  res.Torus.Nodes(),
		Phases: res.Counters.Phases,
		Measure: Measure{
			Steps:            res.Counters.Steps,
			Blocks:           res.Counters.SumMaxBlocks,
			Hops:             res.Counters.SumMaxHops,
			RearrangedBlocks: res.Counters.RearrangedBlocksMaxPerNode,
		},
		NonContiguousSends: res.Counters.NonContiguousSends,
		sched:              res.Schedule,
	}
}

// AllToAll executes the proposed exchange on t with per-step
// contention and one-port checking, verifies that every node ends
// with exactly the blocks destined to it, and returns the measured
// costs.
func AllToAll(t *Torus) (*Report, error) {
	res, err := exchange.Run(t, exchange.Options{CheckSteps: true})
	if err != nil {
		return nil, err
	}
	if err := verify.Delivered(res.Torus, res.Buffers); err != nil {
		return nil, err
	}
	return reportFrom(res), nil
}

// AllToAllConcurrent executes the exchange as one goroutine per node
// communicating over channels (one-port model), verifies delivery,
// and returns the report. No global schedule is recorded.
func AllToAllConcurrent(t *Torus) (*Report, error) {
	res, err := simchan.Run(t)
	if err != nil {
		return nil, err
	}
	if err := verify.Delivered(res.Torus, res.Buffers); err != nil {
		return nil, err
	}
	return &Report{
		Dims:         t.Dims(),
		Nodes:        t.Nodes(),
		Phases:       t.NDims() + 2,
		MessagesSent: res.MessagesSent,
	}, nil
}

// ArbitraryReport is the outcome of a virtual-node run on a torus
// whose dimensions need not be multiples of four.
type ArbitraryReport struct {
	*Report
	// PaddedDims is the multiple-of-four shape the algorithm ran on.
	PaddedDims []int
	// RealNodes is the number of participating (non-virtual) nodes.
	RealNodes int
	// HostSerializedSteps is the step count after serializing each
	// host's virtual-tenant messages under the one-port model.
	HostSerializedSteps int
	// MaxHostLoad is the largest number of messages one host injects
	// in a single step (1 = no overload).
	MaxHostLoad int
}

// AllToAllArbitrary executes the exchange among the nodes of an
// arbitrary torus shape (sizes >= 1, sorted non-increasing) using the
// virtual-node extension of Section 6, verifying that every real node
// receives exactly the blocks of every real origin.
func AllToAllArbitrary(dims ...int) (*ArbitraryReport, error) {
	vr, err := exchange.RunVirtual(dims, exchange.Options{CheckSteps: true})
	if err != nil {
		return nil, err
	}
	if err := verify.DeliveredSubset(vr.Padded, vr.Run.Buffers, vr.RealNodes); err != nil {
		return nil, err
	}
	rep := reportFrom(vr.Run)
	rep.Dims = dims
	rep.Nodes = len(vr.RealNodes)
	return &ArbitraryReport{
		Report:              rep,
		PaddedDims:          vr.Padded.Dims(),
		RealNodes:           len(vr.RealNodes),
		HostSerializedSteps: vr.HostSerializedSteps,
		MaxHostLoad:         vr.MaxHostLoad,
	}, nil
}

// Predict returns the closed-form Table 1 measure of the proposed
// algorithm for the given torus shape.
func Predict(dims ...int) Measure { return costmodel.ProposedND(dims) }

// ScheduleFor builds the complete communication schedule of the
// proposed algorithm on t without simulating any data movement —
// O(steps · nodes) time — and verifies its contention-freedom and
// one-port compliance. Suitable for tori far larger than the
// simulating entry points can hold (tested to 65,536 nodes).
func ScheduleFor(t *Torus) (*Schedule, error) {
	sc, err := exchange.GenerateStructural(t)
	if err != nil {
		return nil, err
	}
	if err := sc.Check(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Algorithm selects an exchange algorithm for Compare.
type Algorithm string

// Available algorithms.
const (
	// Proposed is the Suh–Shin n+2-phase message-combining exchange.
	Proposed Algorithm = "proposed"
	// Direct is the non-combining baseline: N−1 single-block sends.
	// Its Blocks include the wormhole link-sharing serialization of
	// the simultaneous id-shift worms.
	Direct Algorithm = "direct"
	// Ring is the stride-1 dimension-ordered combining baseline.
	Ring Algorithm = "ring"
	// Factored is the prime-factor multiphase combining baseline
	// (minimum-startup class, arbitrary sizes); its Blocks include
	// wormhole link-sharing serialization.
	Factored Algorithm = "factored"
	// LogTime is the power-of-two minimum-startup baseline [9].
	LogTime Algorithm = "logtime"
)

// Algorithms lists every registered algorithm name Compare accepts,
// sorted.
func Algorithms() []string { return algorithm.Names() }

// Compare executes the chosen algorithm on dims and returns its
// measured costs. Every algorithm takes the same path: its registered
// builder emits a schedule.Schedule, and the shared executor in
// internal/exec validates each step (one-port always; wormhole
// link-disjointness unless the step declares link time-sharing, which
// is then charged as a serialization factor on Blocks), replays the
// block movement of payload-annotated schedules, verifies delivery,
// and derives the Measure. Proposed requires multiple-of-four dims;
// Direct, Ring and Factored accept any torus; LogTime needs
// power-of-two dims.
func Compare(alg Algorithm, dims ...int) (Measure, error) {
	t, err := topology.New(dims...)
	if err != nil {
		return Measure{}, err
	}
	b, err := algorithm.For(string(alg))
	if err != nil {
		return Measure{}, err
	}
	// Compile-once, replay-many: BuildProgram serves the compiled form
	// from the process-wide program cache, and the replay runs in a
	// pooled arena so repeated Compare calls reuse buffer backing.
	pg, err := algorithm.BuildProgram(b, t, exec.Options{})
	if err != nil {
		return Measure{}, err
	}
	arena := pg.AcquireArena()
	res, err := pg.RunArena(arena, exec.Options{})
	if err != nil {
		return Measure{}, err
	}
	pg.ReleaseArena(arena)
	return res.Measure, nil
}

// Pair identifies one personalized message of a sparse exchange.
type Pair struct {
	Src, Dst int
}

// AllToAllSparse routes an arbitrary set of (source, destination)
// pairs through the proposed schedule: the exchange machinery is
// oblivious to which blocks exist, so partial (many-to-many) traffic
// rides the same n+2 phases. Returns the verified report. Duplicate
// pairs are rejected.
func AllToAllSparse(t *Torus, pairs []Pair) (*Report, error) {
	n := t.Nodes()
	seen := make(map[Pair]bool, len(pairs))
	blocks := make([]block.Block, 0, len(pairs))
	for _, pr := range pairs {
		if pr.Src < 0 || pr.Src >= n || pr.Dst < 0 || pr.Dst >= n {
			return nil, fmt.Errorf("torusx: pair %+v out of range for %d nodes", pr, n)
		}
		if seen[pr] {
			return nil, fmt.Errorf("torusx: duplicate pair %+v", pr)
		}
		seen[pr] = true
		blocks = append(blocks, block.Block{
			Origin: topology.NodeID(pr.Src),
			Dest:   topology.NodeID(pr.Dst),
		})
	}
	res, err := exchange.RunSparse(t, blocks, exchange.Options{CheckSteps: true})
	if err != nil {
		return nil, err
	}
	// Verify: node i holds exactly the pairs destined to it.
	for i, buf := range res.Buffers {
		for _, b := range buf.View() {
			if int(b.Dest) != i {
				return nil, fmt.Errorf("torusx: misdelivered sparse block %v at node %d", b, i)
			}
			if !seen[Pair{Src: int(b.Origin), Dst: int(b.Dest)}] {
				return nil, fmt.Errorf("torusx: unexpected block %v", b)
			}
		}
	}
	total := 0
	for _, buf := range res.Buffers {
		total += buf.Len()
	}
	if total != len(pairs) {
		return nil, fmt.Errorf("torusx: %d blocks delivered, want %d", total, len(pairs))
	}
	return reportFrom(res), nil
}

// AllToAllSparseArbitrary routes a sparse pair list among the nodes of
// an arbitrary torus shape (sizes not necessarily multiples of four)
// via the Section 6 virtual-node extension: pairs are expressed in the
// real torus's node numbering, mapped onto the padded multiple-of-four
// torus, routed by the unmodified schedule (virtual nodes relay but
// originate nothing), and delivery is verified back in real numbering.
// Out-of-range and duplicate pairs are rejected with an error.
func AllToAllSparseArbitrary(dims []int, pairs []Pair) (*Report, error) {
	real, err := topology.New(dims...)
	if err != nil {
		return nil, err
	}
	if !real.SortedNonIncreasing() {
		return nil, fmt.Errorf("torusx: dimensions %v must be non-increasing", dims)
	}
	padded, err := topology.New(exchange.PadDims(dims)...)
	if err != nil {
		return nil, err
	}
	toPadded := func(id int) topology.NodeID {
		return padded.ID(real.CoordOf(topology.NodeID(id)))
	}
	n := real.Nodes()
	seen := make(map[Pair]bool, len(pairs))
	blocks := make([]block.Block, 0, len(pairs))
	for _, pr := range pairs {
		if pr.Src < 0 || pr.Src >= n || pr.Dst < 0 || pr.Dst >= n {
			return nil, fmt.Errorf("torusx: pair %+v out of range for %d nodes", pr, n)
		}
		if seen[pr] {
			return nil, fmt.Errorf("torusx: duplicate pair %+v", pr)
		}
		seen[pr] = true
		blocks = append(blocks, block.Block{Origin: toPadded(pr.Src), Dest: toPadded(pr.Dst)})
	}
	res, err := exchange.RunSparse(padded, blocks, exchange.Options{CheckSteps: true})
	if err != nil {
		return nil, err
	}
	// Verify in real numbering: real node i ends holding exactly the
	// pairs destined to it; virtual relays end empty.
	realOf := make(map[topology.NodeID]int, n)
	for id := 0; id < n; id++ {
		realOf[toPadded(id)] = id
	}
	total := 0
	for i, buf := range res.Buffers {
		ri, isReal := realOf[topology.NodeID(i)]
		if !isReal && buf.Len() != 0 {
			return nil, fmt.Errorf("torusx: virtual node %d ended with %d blocks", i, buf.Len())
		}
		for _, b := range buf.View() {
			src, ok := realOf[b.Origin]
			if !ok {
				return nil, fmt.Errorf("torusx: block %v originates at a virtual node", b)
			}
			if int(b.Dest) != i {
				return nil, fmt.Errorf("torusx: misdelivered sparse block %v at node %d", b, i)
			}
			if !seen[Pair{Src: src, Dst: ri}] {
				return nil, fmt.Errorf("torusx: unexpected block %v", b)
			}
			total++
		}
	}
	if total != len(pairs) {
		return nil, fmt.Errorf("torusx: %d blocks delivered, want %d", total, len(pairs))
	}
	rep := reportFrom(res)
	rep.Dims = dims
	rep.Nodes = n
	return rep, nil
}

// ExchangeData performs a complete exchange of real payloads over the
// simulated network: data[i][j] is the payload node i holds for node
// j, and the result out satisfies out[i][j] = data[j][i]. Each payload
// is bound to its block, and the block travels hop by hop through the
// concurrent SPMD simulation (one goroutine per node, channels as
// ports); block delivery is verified before the data is returned. No
// payload byte is copied: out[i][j] shares its backing array with
// data[j][i], so writing one changes the other.
func ExchangeData(t *Torus, data [][][]byte) ([][][]byte, error) {
	res, out, err := simchan.RunPayload(t, data)
	if err != nil {
		return nil, err
	}
	if err := verify.Delivered(res.Torus, res.Buffers); err != nil {
		return nil, err
	}
	return out, nil
}

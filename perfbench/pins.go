package main

import (
	"fmt"

	"torusx/internal/costmodel"
)

// pinned holds the Measure of every baseline pair the benchmark runs, as
// the code computed them when the benchmark was defined. The legacy
// executor (baseline.Ring and friends) and the compiled path
// (torusx.Compare) agree on each, and the benchmark's test checks the
// latter. The proposed algorithm's pins are the paper's closed forms,
// costmodel.ProposedND, so they are not listed.
var pinned = map[string]costmodel.Measure{
	"ring 8x8":       {Steps: 14, Blocks: 448, Hops: 14},
	"direct 8x8":     {Steps: 63, Blocks: 184, Hops: 284},
	"factored 8x8":   {Steps: 6, Blocks: 448, Hops: 14, RearrangedBlocks: 128},
	"logtime 8x8":    {Steps: 6, Blocks: 448, Hops: 14, RearrangedBlocks: 128},
	"ring 12x12":     {Steps: 22, Blocks: 1584, Hops: 22},
	"direct 12x12":   {Steps: 143, Blocks: 608, Hops: 930},
	"factored 12x12": {Steps: 8, Blocks: 1584, Hops: 30, RearrangedBlocks: 288},
	"ring 16x16":     {Steps: 30, Blocks: 3840, Hops: 30},
	"direct 16x16":   {Steps: 255, Blocks: 1424, Hops: 2168},
	"factored 16x16": {Steps: 8, Blocks: 3840, Hops: 30, RearrangedBlocks: 512},
	"logtime 16x16":  {Steps: 8, Blocks: 3840, Hops: 30, RearrangedBlocks: 512},
	"ring 8x8x4":     {Steps: 17, Blocks: 2176, Hops: 17},
	"direct 8x8x4":   {Steps: 255, Blocks: 788, Hops: 1500},
	"factored 8x8x4": {Steps: 8, Blocks: 2176, Hops: 17, RearrangedBlocks: 768},
	"logtime 8x8x4":  {Steps: 8, Blocks: 2176, Hops: 17, RearrangedBlocks: 768},
}

// want returns the Measure alg must produce on dims.
func want(alg string, dims []int) (costmodel.Measure, error) {
	if alg == "proposed" || alg == "proposed-sim" {
		return costmodel.ProposedND(dims), nil
	}
	m, ok := pinned[alg+" "+shape(dims)]
	if !ok {
		return costmodel.Measure{}, fmt.Errorf("no pinned measure for %s %s", alg, shape(dims))
	}
	return m, nil
}

// shape renders dims as aapetab labels them, e.g. "8x8x4".
func shape(dims []int) string {
	s := ""
	for i, d := range dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(d)
	}
	return s
}

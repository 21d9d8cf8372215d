// Benchmarks of the one-shot exec.Run — Compile, then Program.Run — on
// the structural proposed schedule, where the run is the compile's
// lowering and checks plus the cost measure:
//
//	go test -bench BenchmarkExecRun ./internal/exec
package exec_test

import (
	"testing"

	"torusx/internal/exchange"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

func benchmarkExec(b *testing.B, dims []int, opt exec.Options) {
	b.Helper()
	tor := topology.MustNew(dims...)
	sc, err := exchange.GenerateStructural(tor)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(sc, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecRun16x16(b *testing.B) {
	benchmarkExec(b, []int{16, 16}, exec.Options{})
}

func BenchmarkExecRun32x32(b *testing.B) {
	benchmarkExec(b, []int{32, 32}, exec.Options{})
}

func BenchmarkExecRun16x16x16(b *testing.B) {
	benchmarkExec(b, []int{16, 16, 16}, exec.Options{})
}

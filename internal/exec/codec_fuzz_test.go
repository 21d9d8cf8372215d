package exec_test

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/exec"
	"torusx/internal/topology"
)

// FuzzProgramDecode hammers the binary decoder with mutated program
// files. The contract under test: DecodeProgram never panics and never
// returns a program whose replay-facing tables are out of bounds — it
// either errors or yields a program whose lazy schedule
// materialization also completes without panicking. The fuzzer decodes
// each input twice: once verbatim (exercising the CRC/framing layer)
// and once with the trailing checksum recomputed, so mutations reach
// the structural validation behind the integrity gate instead of
// dying at the checksum 1/2^32 of the time.
func FuzzProgramDecode(f *testing.F) {
	tor := topology.MustNew(4, 4)
	seed := func(alg string, fab topology.Fabric) []byte {
		b, err := algorithm.For(alg)
		if err != nil {
			f.Fatal(err)
		}
		sc, err := b.BuildSchedule(fab)
		if err != nil {
			f.Fatal(err)
		}
		pg, err := exec.Compile(sc, exec.Options{})
		if err != nil {
			f.Fatal(err)
		}
		enc, err := exec.EncodeProgram(pg, 0)
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	direct := seed("direct", tor)
	f.Add(direct)
	f.Add(seed("proposed-sim", tor))
	f.Add(seed("factored", tor))
	f.Add(direct[:len(direct)/2])
	f.Add(direct[:16])
	flipped := append([]byte(nil), direct...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	f.Add([]byte("TXPG"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(b []byte) {
			pg, err := exec.DecodeProgram(b, tor, 0)
			if err != nil {
				return
			}
			// A program the decoder accepted must materialize its schedule
			// without panicking (errors are the cold section's job to
			// report), and its accessors must be safe.
			if sc := pg.Schedule(); sc == nil && pg.SchedErr() == nil {
				t.Fatal("nil schedule with nil error")
			}
			_ = pg.Measure()
			_ = pg.MaxSharing()
			_ = pg.SizeBytes()
		}
		check(data)
		if len(data) >= 8 {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc32.ChecksumIEEE(sealed[:len(sealed)-4]))
			check(sealed)
		}
	})
}

// FuzzDescriptorDecode extends the decode fuzzing contract to the
// descriptor section: any program the decoder accepts must not only
// materialize safely, it must REPLAY safely — through RunArena and
// through ReplayInto — because the descriptor plan is executed with
// unchecked gathers whose every index the decoder promised to have
// bounds-validated. A panic or out-of-range access here means a
// corrupted or hostile cache file can crash (or worse, silently
// corrupt) the host process. Like FuzzProgramDecode, each input is
// tried verbatim and with the CRC resealed so mutations reach the
// structural validation.
func FuzzDescriptorDecode(f *testing.F) {
	tor := topology.MustNew(4, 4)
	seed := func(alg string) []byte {
		b, err := algorithm.For(alg)
		if err != nil {
			f.Fatal(err)
		}
		sc, err := b.BuildSchedule(tor)
		if err != nil {
			f.Fatal(err)
		}
		pg, err := exec.Compile(sc, exec.Options{})
		if err != nil {
			f.Fatal(err)
		}
		enc, err := exec.EncodeProgram(pg, 0)
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	direct := seed("direct")
	f.Add(direct)
	f.Add(seed("factored"))
	f.Add(seed("proposed-sim"))
	flipped := append([]byte(nil), direct...)
	flipped[2*len(flipped)/3] ^= 0x10 // land mutations in the replay/desc tables
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(b []byte) {
			pg, err := exec.DecodeProgram(b, tor, 0)
			if err != nil || !pg.Replayable() {
				return
			}
			// Replay errors are fine (the executor's own validation may
			// reject what the decoder structurally accepted); panics and
			// wild memory accesses are the bug class under test.
			if _, err := pg.Run(exec.Options{}); err != nil {
				return
			}
			a := pg.NewArena()
			dst := make([]int32, pg.DeliverySize())
			_ = pg.ReplayInto(a, dst)
		}
		check(data)
		if len(data) >= 8 {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc32.ChecksumIEEE(sealed[:len(sealed)-4]))
			check(sealed)
		}
	})
}

package exec_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"torusx/internal/algorithm"
	"torusx/internal/costmodel"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/telemetry"
	"torusx/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite codec golden files")

// codecPrograms yields the (fabric, schedule) pairs the codec tests
// cover: the replay-heavy direct exchange and the proposed algorithm
// on the differential shapes, a measure-only structural schedule, and
// a dragonfly exchange — every flag combination the format has.
func codecPrograms(t *testing.T) map[string]*schedule.Schedule {
	t.Helper()
	out := map[string]*schedule.Schedule{}
	for _, alg := range []string{"direct", "proposed-sim"} {
		for _, dims := range [][]int{{8, 8}, {4, 4, 4}, {12, 8}} {
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			tor := topology.MustNew(dims...)
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Skipf("builder %s on %v: %v", alg, dims, err)
			}
			out[shapeName(alg, dims)] = sc
		}
	}
	b, err := algorithm.For("dimexchange")
	if err != nil {
		t.Fatal(err)
	}
	d := topology.MustNewDragonfly(4, 4)
	sc, err := b.BuildSchedule(d)
	if err != nil {
		t.Fatalf("dimexchange on dragonfly: %v", err)
	}
	out["dimexchange/d4x4"] = sc
	return out
}

// TestProgramCodecRoundTripStable: encode→decode→encode must be
// byte-identical for every program shape, and the decoded program's
// observable surface (measure, sharing, size class, schedule) must
// match the original.
func TestProgramCodecRoundTripStable(t *testing.T) {
	for name, sc := range codecPrograms(t) {
		t.Run(name, func(t *testing.T) {
			pg, err := exec.Compile(sc, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			const fp = 0xfeedface
			enc, err := exec.EncodeProgram(pg, fp)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := exec.DecodeProgram(enc, sc.Fabric, fp)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dec.Measure() != pg.Measure() {
				t.Errorf("Measure %+v, want %+v", dec.Measure(), pg.Measure())
			}
			if dec.MaxSharing() != pg.MaxSharing() {
				t.Errorf("MaxSharing %d, want %d", dec.MaxSharing(), pg.MaxSharing())
			}
			if dec.Replayable() != pg.Replayable() {
				t.Errorf("Replayable %v, want %v", dec.Replayable(), pg.Replayable())
			}
			re, err := exec.EncodeProgram(dec, fp)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc, re) {
				t.Fatalf("re-encoded bytes differ: %d vs %d bytes", len(enc), len(re))
			}
			// The lazily materialized schedule must round-trip the
			// structural facts the original carried.
			got := dec.Schedule()
			if got == nil {
				t.Fatalf("decoded schedule: %v", dec.SchedErr())
			}
			if len(got.Phases) != len(sc.Phases) {
				t.Fatalf("%d phases, want %d", len(got.Phases), len(sc.Phases))
			}
			for pi := range sc.Phases {
				a, b := &got.Phases[pi], &sc.Phases[pi]
				if a.Name != b.Name || a.Rearrange != b.Rearrange || len(a.Steps) != len(b.Steps) {
					t.Fatalf("phase %d: %q/%d/%d steps, want %q/%d/%d", pi,
						a.Name, a.Rearrange, len(a.Steps), b.Name, b.Rearrange, len(b.Steps))
				}
			}
		})
	}
}

// TestDecodedProgramDifferentialReplay: a program decoded from its
// binary form must replay exactly like the freshly compiled one — and
// like the Reference oracle — on a fresh arena and repeatedly on a
// reused one, with identical delivery matrices and identical canonical
// telemetry streams.
func TestDecodedProgramDifferentialReplay(t *testing.T) {
	for name, sc := range codecPrograms(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := exec.Reference(sc, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pg, err := exec.Compile(sc, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			enc, err := exec.EncodeProgram(pg, 7)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := exec.DecodeProgram(enc, sc.Fabric, 7)
			if err != nil {
				t.Fatal(err)
			}
			arena := dec.NewArena()
			runs := []struct {
				label string
				run   func() (*exec.Result, error)
			}{
				{"run", func() (*exec.Result, error) { return dec.Run(exec.Options{}) }},
				{"arena-first", func() (*exec.Result, error) { return dec.RunArena(arena, exec.Options{}) }},
				{"arena-repeat", func() (*exec.Result, error) { return dec.RunArena(arena, exec.Options{}) }},
			}
			for _, r := range runs {
				got, err := r.run()
				if err != nil {
					t.Fatalf("%s: %v", r.label, err)
				}
				if got.Measure != ref.Measure || got.MaxSharing != ref.MaxSharing || got.Replayed != ref.Replayed {
					t.Errorf("%s: Measure %+v sharing %d replayed %v, want %+v %d %v", r.label,
						got.Measure, got.MaxSharing, got.Replayed, ref.Measure, ref.MaxSharing, ref.Replayed)
				}
				sameBuffers(t, ref.Buffers, got.Buffers)
			}
			// Telemetry differential: the decoded program's stream (which
			// forces the lazy schedule materialization) against the fresh
			// compile's.
			want := recordProgram(t, pg)
			gotEv := recordProgram(t, dec)
			if !reflect.DeepEqual(telemetry.Canonical(want), telemetry.Canonical(gotEv)) {
				t.Fatalf("decoded telemetry stream diverges from compiled stream (%d vs %d events)", len(gotEv), len(want))
			}
		})
	}
}

func recordProgram(t *testing.T, pg *exec.Program) []telemetry.Event {
	t.Helper()
	sink := &telemetry.MemorySink{}
	rec := telemetry.New(sink, costmodel.T3D(64))
	if _, err := pg.Run(exec.Options{Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestProgramDecodeRejects: the decoder must reject — with an error,
// never a panic — every truncation prefix, flipped content bytes,
// wrong magic/version, unknown flags, and fabric or options
// fingerprints that do not match the decode context.
func TestProgramDecodeRejects(t *testing.T) {
	tor := topology.MustNew(4, 4)
	b, err := algorithm.For("direct")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.BuildSchedule(tor)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := exec.Compile(sc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := exec.EncodeProgram(pg, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncations", func(t *testing.T) {
		for i := 0; i < len(enc); i++ {
			if _, err := exec.DecodeProgram(enc[:i], tor, 1); err == nil {
				t.Fatalf("truncation to %d bytes decoded", i)
			}
		}
	})
	t.Run("corruption", func(t *testing.T) {
		// Every byte flipped in turn would be slow; stride through the
		// file. CRC32 catches all single-byte flips by construction.
		for i := 0; i < len(enc); i += 7 {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x5a
			if _, err := exec.DecodeProgram(bad, tor, 1); err == nil {
				t.Fatalf("flip at %d decoded", i)
			}
		}
	})
	t.Run("fingerprints", func(t *testing.T) {
		if _, err := exec.DecodeProgram(enc, tor, 2); err == nil {
			t.Fatal("wrong options fingerprint accepted")
		}
		if _, err := exec.DecodeProgram(enc, topology.MustNew(8, 8), 1); err == nil {
			t.Fatal("wrong fabric accepted")
		}
		if _, err := exec.DecodeProgram(enc, nil, 1); err == nil {
			t.Fatal("nil fabric accepted")
		}
	})
	t.Run("header", func(t *testing.T) {
		reseal := func(mut func([]byte)) []byte {
			bad := append([]byte(nil), enc...)
			mut(bad)
			binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
			return bad
		}
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[0] = 'X' }), tor, 1); err == nil {
			t.Fatal("bad magic accepted")
		}
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[4] = 99 }), tor, 1); err == nil {
			t.Fatal("future version accepted")
		}
		if _, err := exec.DecodeProgram(reseal(func(b []byte) { b[6] |= 0x80 }), tor, 1); err == nil {
			t.Fatal("unknown flag accepted")
		}
	})
}

// TestProgramCodecGolden pins the v3 byte format: the committed
// golden files must decode, and re-encoding the 4x4 programs must
// reproduce them bit-for-bit. A diff here means the format changed —
// bump CodecVersion rather than silently breaking every cached
// program on disk. Regenerate with -update after a deliberate version
// bump. Two shapes are pinned: the direct exchange, and the factored
// algorithm whose multi-phase program exercises the descriptor
// section (rewrites, tail segments) most heavily.
func TestProgramCodecGolden(t *testing.T) {
	tor := topology.MustNew(4, 4)
	for _, alg := range []string{"direct", "factored"} {
		t.Run(alg, func(t *testing.T) {
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := b.BuildSchedule(tor)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := exec.Compile(sc, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			enc, err := exec.EncodeProgram(pg, 0)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "program_v3_"+alg+"4x4.bin")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("encoding diverges from committed v3 golden (%d vs %d bytes); if the format changed deliberately, bump CodecVersion and -update", len(enc), len(want))
			}
			dec, err := exec.DecodeProgram(want, tor, 0)
			if err != nil {
				t.Fatalf("golden decode: %v", err)
			}
			if dec.Measure() != pg.Measure() {
				t.Fatalf("golden Measure %+v, want %+v", dec.Measure(), pg.Measure())
			}
			// Decode-and-replay: the program reconstituted from the
			// committed bytes must deliver the same matrix as the fresh
			// compile, through the descriptor path and straight into a
			// caller buffer.
			ref, err := pg.Run(exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Run(exec.Options{})
			if err != nil {
				t.Fatalf("golden replay: %v", err)
			}
			sameBuffers(t, ref.Buffers, got.Buffers)
			refDst := make([]int32, pg.DeliverySize())
			if err := pg.ReplayInto(pg.NewArena(), refDst); err != nil {
				t.Fatal(err)
			}
			dst := make([]int32, dec.DeliverySize())
			if err := dec.ReplayInto(dec.NewArena(), dst); err != nil {
				t.Fatalf("golden ReplayInto: %v", err)
			}
			for i := range refDst {
				if dst[i] != refDst[i] {
					t.Fatalf("golden ReplayInto diverges at flat position %d: %d vs %d", i, dst[i], refDst[i])
				}
			}
		})
	}
}

// TestProgramCodecStaleVersionsRejected: the committed files of the
// earlier format versions — the v1 golden and the two v2 goldens, kept
// byte for byte and never regenerated — must fail DecodeProgram with
// the version error, not decode into a half-understood program. The
// disk tier turns exactly this error into a miss and a recompile (see
// progcache's stale-file test).
func TestProgramCodecStaleVersionsRejected(t *testing.T) {
	tor := topology.MustNew(4, 4)
	for _, name := range []string{"program_v1_direct4x4.bin", "program_v2_direct4x4.bin", "program_v2_factored4x4.bin"} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatalf("read committed stale golden (must never be regenerated): %v", err)
			}
			_, err = exec.DecodeProgram(raw, tor, 0)
			if err == nil {
				t.Fatal("stale program file decoded")
			}
			if !strings.Contains(err.Error(), "program file version") {
				t.Fatalf("stale file rejected with %q, want the version error", err)
			}
		})
	}
}

// TestProgramCodecRetiredFlagRejected: bit 3 of the flags byte marked a
// v3 file carrying a forwarding-verdict section, which this build
// neither writes nor reads. The committed v3 goldens carry flags 0x05
// (replay, full traffic); with bit 3 set and the CRC resealed, a golden
// must fail DecodeProgram with the unknown-flags error, which the disk
// tier turns into a miss and a recompile.
func TestProgramCodecRetiredFlagRejected(t *testing.T) {
	tor := topology.MustNew(4, 4)
	for _, alg := range []string{"direct", "factored"} {
		t.Run(alg, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "program_v3_"+alg+"4x4.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if raw[6] != 0x05 {
				t.Fatalf("committed v3 golden has flags %#x, want 0x05", raw[6])
			}
			raw[6] |= 1 << 3
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
			_, err = exec.DecodeProgram(raw, tor, 0)
			if err == nil {
				t.Fatal("file with the retired flag decoded")
			}
			if !strings.Contains(err.Error(), "unknown flags 0x8") {
				t.Fatalf("retired flag rejected with %q, want the unknown-flags error", err)
			}
		})
	}
}

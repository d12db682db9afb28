package compress

import (
	"bytes"
	"math"
	"testing"

	"malt/internal/ml/linalg"
)

// FuzzCompressDecode mirrors the framed-stream codec's fuzz harness
// (fabric/stream FuzzFrameDecode) for compression frames. Invariants:
//
//  1. Decode never panics on arbitrary bytes; invalid input errors.
//  2. Exact framing: a valid frame with one byte removed or appended is
//     rejected — decoders consume the body completely or fail.
//  3. Value canonicity: any successfully decoded coordinate range, when
//     re-planned and re-encoded by the same codec, round-trips bit for bit
//     (decode == Recon), and the re-encode itself is deterministic.
func FuzzCompressDecode(f *testing.F) {
	seedData := [][]float64{
		{1, -2, 3, 0, 5.5, -6.25, 0, 8},
		{0, math.NaN(), math.Inf(1), 5e-324, -1e300, 127, 128, 0.5},
		make([]float64, 300),
	}
	for i := range seedData[2] {
		seedData[2][i] = float64(i%17) - 8
	}
	for _, data := range seedData {
		for _, name := range Names() {
			c, _ := Lookup(name)
			p := &Plan{}
			c.Plan(p, data, 0.4)
			f.Add(uint16(0), AppendFrame(nil, p, 0, len(data)))
			if len(data) > 4 {
				f.Add(uint16(2), AppendFrame(nil, p, 2, len(data)-1))
			}
		}
	}
	f.Add(uint16(0), []byte{})
	f.Add(uint16(9), []byte{frameMagic, codecTopKID, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, lo16 uint16, frame []byte) {
		lo := int(lo16)
		count := 64
		if len(frame) >= frameHeaderSize {
			if c := int(uint32(frame[2]) | uint32(frame[3])<<8 | uint32(frame[4])<<16 | uint32(frame[5])<<24); c <= 4096 {
				count = c
			}
		}
		out := make([]float64, count)
		if err := Decode(out, lo, frame); err != nil {
			return
		}

		// A topk frame decodes to the same pairs through DecodePairs.
		if lo == 0 && frame[1] == codecTopKID {
			var sv linalg.SparseVector
			if err := DecodePairs(&sv, count, frame); err != nil {
				t.Fatalf("Decode accepted a topk frame DecodePairs rejects: %v", err)
			}
			dense := sv.ToDense(count)
			for i := range out {
				if math.Float64bits(dense[i]) != math.Float64bits(out[i]) {
					t.Fatalf("coord %d: DecodePairs %v != Decode %v", i, dense[i], out[i])
				}
			}
		}

		// Exact framing: strict prefixes and extensions must fail.
		if err := Decode(out, lo, frame[:len(frame)-1]); err == nil {
			t.Fatalf("truncated frame accepted (%d bytes)", len(frame)-1)
		}
		if err := Decode(out, lo, append(append([]byte{}, frame...), 0)); err == nil {
			t.Fatal("extended frame accepted")
		}

		// Value canonicity of our own encoder over the decoded values.
		c := byID(frame[1])
		p := &Plan{}
		c.Plan(p, out, 1.0)
		re := AppendFrame(nil, p, 0, len(out))
		if !bytes.Equal(re, AppendFrame(nil, p, 0, len(out))) {
			t.Fatal("re-encode is nondeterministic")
		}
		out2 := make([]float64, len(out))
		if err := Decode(out2, 0, re); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		for i := range out2 {
			if math.Float64bits(out2[i]) != math.Float64bits(p.Recon[i]) {
				t.Fatalf("coord %d: re-encoded decode %v != Recon %v", i, out2[i], p.Recon[i])
			}
		}
	})
}

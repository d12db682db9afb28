package vol

import (
	"encoding/binary"
	"math"
	"testing"

	"malt/internal/ml/linalg"
)

// Hand-built frames (magic 0xC6, codec ID, uint32 count, body), so the
// wire-boundary tests below state the exact bytes a peer could deposit.
const (
	testFrameMagic = 0xC6
	testCodecNone  = 0
	testCodecTopK  = 1
)

// rawPairs is a topk frame over count coordinates carrying arbitrary
// (idx, val) pairs — including indices no well-behaved sender produces.
func rawPairs(count int, idx []uint32, val []float64) []byte {
	b := []byte{testFrameMagic, testCodecTopK}
	b = binary.LittleEndian.AppendUint32(b, uint32(count))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(idx)))
	for i, ix := range idx {
		b = binary.LittleEndian.AppendUint32(b, ix)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(val[i]))
	}
	return b
}

// rawDense is a none frame carrying vals.
func rawDense(vals []float64) []byte {
	b := []byte{testFrameMagic, testCodecNone}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// rawFragment prefixes a frame with a bucket header.
func rawFragment(id uint64, lo, count, buckets int, frame []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(lo))
	b = binary.LittleEndian.AppendUint32(b, uint32(count))
	b = binary.LittleEndian.AppendUint32(b, uint32(buckets))
	return append(b, frame...)
}

// TestSparseIndexBounds: a sparse payload whose indices fall outside
// [0, dim) or are not strictly ascending is an error at the receiver —
// never a panic, never a silent drop — and leaves the local value
// untouched; ScatterSparse refuses to send such an update at all.
func TestSparseIndexBounds(t *testing.T) {
	const dim = 8
	bad := []struct {
		name    string
		payload []byte
	}{
		{"index -1", rawPairs(dim, []uint32{0xFFFFFFFF}, []float64{1})},
		{"index equals dim", rawPairs(dim, []uint32{dim}, []float64{1})},
		{"index beyond dim", rawPairs(dim, []uint32{3, 1 << 20}, []float64{1, 2})},
		{"descending", rawPairs(dim, []uint32{5, 2}, []float64{1, 2})},
		{"duplicate", rawPairs(dim, []uint32{4, 4}, []float64{1, 2})},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			vecs := newVectors(t, 2, dim, Sparse, Options{})
			if _, err := vecs[0].Segment().Scatter(tc.payload, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := vecs[1].Gather(Sum); err == nil {
				t.Fatal("malformed sparse payload gathered without error")
			}
			for i, x := range vecs[1].Data() {
				if x != 0 {
					t.Fatalf("coord %d = %v after a rejected update", i, x)
				}
			}
		})
	}

	t.Run("well-formed", func(t *testing.T) {
		vecs := newVectors(t, 2, dim, Sparse, Options{})
		if _, err := vecs[0].Segment().Scatter(rawPairs(dim, []uint32{0, 7}, []float64{1.5, -2}), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := vecs[1].Gather(Sum); err != nil {
			t.Fatal(err)
		}
		if d := vecs[1].Data(); d[0] != 1.5 || d[7] != -2 {
			t.Fatalf("data = %v", d)
		}
	})

	t.Run("ScatterSparse rejects", func(t *testing.T) {
		vecs := newVectors(t, 2, dim, Sparse, Options{})
		for _, idx := range [][]int32{{-1}, {dim}, {3, 2}, {1, 1}} {
			sv := &linalg.SparseVector{Idx: idx, Val: make([]float64, len(idx))}
			if _, err := vecs[0].ScatterSparse(sv, 1); err == nil {
				t.Errorf("ScatterSparse accepted indices %v", idx)
			}
		}
		if _, err := vecs[1].Gather(Sum); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzVectorGather deposits arbitrary payloads into dense, sparse and
// bucketed vectors' rings and gathers them. Invariants: a gather never
// panics; a gather that fails leaves the local value bit for bit
// unchanged; every sparse update a UDF sees has strictly ascending indices
// within [0, dim).
func FuzzVectorGather(f *testing.F) {
	const dim = 8
	const coords = 3 // bucketed vector: BucketBytes 24 → buckets of 3 coords
	vals := []float64{1, -2, 3, 0, 5.5, math.NaN(), math.Inf(-1), 8}
	f.Add(uint8(0), rawDense(vals))
	f.Add(uint8(0), rawDense(vals[:dim-1]))
	f.Add(uint8(0), rawPairs(dim, []uint32{1, 6}, []float64{2, 3}))
	f.Add(uint8(1), rawPairs(dim, []uint32{0, 7}, []float64{1.5, -2}))
	f.Add(uint8(1), rawPairs(dim, []uint32{0xFFFFFFFF}, []float64{1}))
	f.Add(uint8(1), rawPairs(dim, []uint32{dim}, []float64{1}))
	f.Add(uint8(1), rawPairs(dim, []uint32{5, 2}, []float64{1, 2}))
	f.Add(uint8(1), rawDense(vals))
	f.Add(uint8(2), rawFragment(1, 0, coords, 3, rawDense(vals[:coords])))
	f.Add(uint8(2), rawFragment(1, 3, coords, 3, rawPairs(coords, []uint32{4}, []float64{9})))
	f.Add(uint8(2), rawFragment(1, 6, 2, 3, rawPairs(2, []uint32{0xFFFFFFFF}, []float64{1})))
	f.Add(uint8(2), rawFragment(1, 6, 2, 3, rawDense(vals[:3])))
	f.Add(uint8(2), []byte{})

	vecs := [][]*Vector{
		newVectors(f, 2, dim, Dense, Options{}),
		newVectors(f, 2, dim, Sparse, Options{}),
		newVectors(f, 2, dim, Dense, Options{BucketBytes: 8 * coords}),
	}
	var iter uint64
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		v := vecs[int(kind)%len(vecs)]
		iter++
		if _, err := v[0].Segment().Scatter(payload, iter); err != nil {
			return // larger than a ring slot
		}
		before := append([]float64(nil), v[1].Data()...)
		_, err := v[1].Gather(func(fd Fold) {
			for _, u := range fd.Updates {
				if u.Sparse == nil {
					continue
				}
				prev := int32(-1)
				for _, ix := range u.Sparse.Idx {
					if ix <= prev || int(ix) >= dim {
						t.Fatalf("UDF saw sparse index %d after %d (dim %d)", ix, prev, dim)
					}
					prev = ix
				}
			}
			Sum(fd)
		})
		if err != nil {
			for i, x := range v[1].Data() {
				if math.Float64bits(x) != math.Float64bits(before[i]) {
					t.Fatalf("failed gather changed coord %d: %v -> %v", i, before[i], x)
				}
			}
		}
	})
}

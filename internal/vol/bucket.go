package vol

import (
	"encoding/binary"
	"fmt"
)

// Gradient bucketing (comm/compute overlap, DDP-style).
//
// A bucketed Vector splits every scatter into byte-capped coordinate-range
// fragments instead of one monolithic record. Each fragment is an ordinary
// dstorm record, so it rides the existing send machinery — in particular the
// coalescing pipeline, whose background workers put fragment i on the wire
// while the trainer is still producing fragment i+1 (ScatterBucketed) or the
// next batch (plain Scatter). On the receive side, fragments reassemble into
// whole logical updates before folding, so the folded multiset — and
// therefore the float result, bit for bit — is identical to the unbucketed
// path. An update folds exactly once, when its last fragment has arrived;
// an update whose fragments were lost (ring overwrite, exhausted retries)
// folds zero times and is evicted when a newer scatter from the same sender
// completes.
//
// Fragment wire format (Dense vectors only):
//
//	[0:8]   uint64 scatterID — sender's per-vector logical scatter counter
//	[8:12]  uint32 lo        — first coordinate of this fragment
//	[12:16] uint32 count     — coordinates in this fragment
//	[16:20] uint32 buckets   — fragments in this logical update
//	[20:]   the compress frame for coordinates [lo, lo+count): a none
//	        frame, or the vector's codec frame when it is compressed
//
// All ranks create the vector with the same BucketBytes (vector creation is
// collective with identical options), so a receiver always knows whether a
// segment carries fragments or monolithic records.

// bucketHeaderSize is scatterID(8) + lo(4) + count(4) + buckets(4).
const bucketHeaderSize = 20

// BucketPerf counts the bucketing engine's work since the vector was
// created. Like GatherPerf it is owned by the vector's goroutine.
type BucketPerf struct {
	// FragmentsSent is the number of bucket fragments scattered.
	FragmentsSent uint64
	// Assembled is the number of complete logical updates reassembled and
	// handed to the fold.
	Assembled uint64
	// Evicted is the number of incomplete assemblies abandoned because a
	// newer scatter from the same sender completed first (fragments lost to
	// ring overwrites or exhausted retries).
	Evicted uint64
	// Duplicates is the number of fragments that re-covered an
	// already-deposited bucket of the same assembly (write retries after a
	// delivered-but-unacknowledged fragment). Duplicates are absorbed: the
	// bucket is counted once and the update still folds exactly once.
	Duplicates uint64
}

// bucketAsm is one in-flight logical update being reassembled from
// fragments. Fragments from one sender arrive in scatter order (per-sender
// delivery is FIFO on every transport), so each sender needs only one
// active assembly.
type bucketAsm struct {
	id   uint64 // scatterID being assembled; 0 = idle
	iter uint64
	got  int
	seen []bool // per bucket index, guards duplicate fragments
	data []float64
}

// bucketState is a bucketed vector's receive-side reassembly state plus the
// sender-side split geometry.
type bucketState struct {
	coords  int                // coordinates per full-size fragment
	buckets int                // fragments per logical update
	asm     map[int]*bucketAsm // sender rank → active assembly
	free    []*bucketAsm       // recycled assemblies (buffers reused)
	// retired holds assemblies evicted mid-drain. The gather moves them to
	// free after its fold, so an assembly is never reused within the
	// gather that evicted it.
	retired []*bucketAsm
	perf    BucketPerf
}

// newBucketState derives the split geometry: fragments carry at most
// bucketBytes of payload (floored at one coordinate).
func newBucketState(dim, bucketBytes int) *bucketState {
	coords := bucketBytes / 8
	if coords < 1 {
		coords = 1
	}
	if coords > dim {
		coords = dim
	}
	return &bucketState{
		coords:  coords,
		buckets: (dim + coords - 1) / coords,
		asm:     make(map[int]*bucketAsm),
	}
}

// bucketRange returns the coordinate range [lo, hi) of bucket b.
func (bs *bucketState) bucketRange(dim, b int) (lo, hi int) {
	lo = b * bs.coords
	hi = lo + bs.coords
	if hi > dim {
		hi = dim
	}
	return lo, hi
}

// appendHeader appends the header of scatter id's fragment for
// coordinates [lo, hi); the fragment's frame follows it.
func (bs *bucketState) appendHeader(dst []byte, id uint64, lo, hi int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(lo))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(hi-lo))
	return binary.LittleEndian.AppendUint32(dst, uint32(bs.buckets))
}

// fragHeader is a decoded fragment header.
type fragHeader struct {
	id      uint64
	lo      int
	count   int
	buckets int
}

// decodeFragHeader validates a fragment header against the vector geometry.
func (bs *bucketState) decodeFragHeader(dim int, payload []byte) (fragHeader, error) {
	if len(payload) < bucketHeaderSize {
		return fragHeader{}, fmt.Errorf("vol: bucket fragment too short (%d bytes)", len(payload))
	}
	h := fragHeader{
		id:      binary.LittleEndian.Uint64(payload[0:8]),
		lo:      int(binary.LittleEndian.Uint32(payload[8:12])),
		count:   int(binary.LittleEndian.Uint32(payload[12:16])),
		buckets: int(binary.LittleEndian.Uint32(payload[16:20])),
	}
	if h.buckets != bs.buckets || h.lo < 0 || h.count < 1 || h.lo+h.count > dim {
		return fragHeader{}, fmt.Errorf("vol: bucket fragment header out of range (lo=%d count=%d buckets=%d, vector dim=%d buckets=%d)",
			h.lo, h.count, h.buckets, dim, bs.buckets)
	}
	if h.lo%bs.coords != 0 {
		return fragHeader{}, fmt.Errorf("vol: bucket fragment lo=%d not aligned to bucket size %d", h.lo, bs.coords)
	}
	return h, nil
}

// grabAsm returns a recycled or fresh assembly for one logical update.
func (bs *bucketState) grabAsm(dim int) *bucketAsm {
	if n := len(bs.free); n > 0 {
		a := bs.free[n-1]
		bs.free = bs.free[:n-1]
		a.id, a.iter, a.got = 0, 0, 0
		for i := range a.seen {
			a.seen[i] = false
		}
		return a
	}
	return &bucketAsm{seen: make([]bool, bs.buckets), data: make([]float64, dim)}
}

// releaseAsm recycles an assembly's buffers.
func (bs *bucketState) releaseAsm(a *bucketAsm) {
	bs.free = append(bs.free, a)
}

// routeFragment routes one fragment to its sender's assembly, evicting a
// stale incomplete assembly when the sender has moved on to a newer
// scatter. It marks the fragment's bucket deposited and returns the
// assembly to decode its frame into, or nil when the fragment is a
// duplicate or out of date.
func (bs *bucketState) routeFragment(dim, from int, iter uint64, h fragHeader) *bucketAsm {
	a := bs.asm[from]
	if a != nil && h.id < a.id {
		// A fragment of a scatter older than the one being assembled: its
		// siblings were lapped in the ring. It can never complete.
		bs.perf.Evicted++
		return nil
	}
	if a != nil && h.id > a.id {
		// Sender moved on; the current assembly's missing fragments were
		// overwritten and will never arrive.
		if a.got > 0 {
			bs.perf.Evicted++
		}
		bs.retired = append(bs.retired, a)
		a = nil
	}
	if a == nil {
		a = bs.grabAsm(dim)
		a.id, a.iter = h.id, iter
		bs.asm[from] = a
	}
	idx := h.lo / bs.coords
	if a.seen[idx] {
		bs.perf.Duplicates++
		return nil
	}
	a.seen[idx] = true
	a.got++
	return a
}

// completeAsm detaches the sender's assembly if every fragment has landed,
// returning it (caller folds then releases) or nil.
func (bs *bucketState) completeAsm(from int) *bucketAsm {
	a := bs.asm[from]
	if a == nil || a.got < bs.buckets {
		return nil
	}
	delete(bs.asm, from)
	bs.perf.Assembled++
	return a
}

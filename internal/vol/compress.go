package vol

import (
	"math"

	"malt/internal/compress"
)

// Compressed scatter path.
//
// A compressed Vector ships its codec's frames instead of none frames.
// Unlike every other scatter, the payload differs per destination:
// each link carries its own error-feedback residual, so the
// residual-corrected update — and therefore the planned frame — is
// per-peer. Scatters therefore loop over destinations, Begin-ing the
// compression state once per peer and sending that peer its own frame(s);
// dstorm's Segment copies each payload into its own buffers synchronously,
// so one encode buffer serves all peers.
//
// Composed with bucketing, each fragment is an ordinary bucket header whose
// body is the frame for that bucket's coordinate range, sliced from the one
// whole-update plan. Global planning is what keeps the reassembled update —
// and the fold — bitwise identical at any bucket size: the union of the
// per-bucket frames decodes to exactly the whole-vector frame's
// reconstruction.

// compState bundles a vector's per-destination compression state with the
// optional adaptive per-link ratio controller.
type compState struct {
	st  *compress.State
	ctl *compress.Controller
}

// ratio returns the ratio in force for one destination.
func (c *compState) ratio(peer int) float64 {
	if c.ctl != nil {
		return c.ctl.Ratio(peer)
	}
	return c.st.Options().Ratio
}

// CompressPerf summarizes a compressed vector's wire savings and adaptive
// activity. Owned by the vector's goroutine, like GatherPerf.
type CompressPerf struct {
	// BytesPre is the raw bytes the scatters would have shipped
	// uncompressed (8·dim per destination per update).
	BytesPre uint64
	// BytesPost is the frame bytes actually produced.
	BytesPost uint64
	// Frames is the number of frames produced.
	Frames uint64
	// ResidualNormMicro is the current L1 norm of all per-link residuals
	// in micro-units (×1e6) — the gradient mass deferred by error
	// feedback right now.
	ResidualNormMicro uint64
	// Adaptations counts adaptive per-link ratio changes (0 when the
	// controller is off).
	Adaptations uint64
	// HardestInvRatioMilli is 1000 / the smallest per-link ratio that
	// was ever in force, rounded — 8000 means some link shipped 1/8 of
	// its coordinates at its tightest. The peak survives post-pressure
	// relaxation (a healed link drifts back to base, but the harvest
	// still shows how hard the blackout squeezed it); equals 1000/base
	// ratio when adaptation is off or no link was ever pressured.
	HardestInvRatioMilli uint64
}

// Compressed reports whether scatters ship codec frames.
func (v *Vector) Compressed() bool { return v.comp != nil }

// CompressPerf returns the compression engine's counters (zero value when
// the vector is not compressed).
func (v *Vector) CompressPerf() CompressPerf {
	if v.comp == nil {
		return CompressPerf{}
	}
	p := v.comp.st.Perf()
	out := CompressPerf{
		BytesPre:          p.BytesPre,
		BytesPost:         p.BytesPost,
		Frames:            p.Frames,
		ResidualNormMicro: uint64(math.Round(v.comp.st.ResidualNorm() * 1e6)),
	}
	hardest := v.comp.st.Options().Ratio
	if v.comp.ctl != nil {
		cp := v.comp.ctl.Perf()
		out.Adaptations = cp.Adaptations
		hardest = cp.TightestRatio
	}
	if !v.comp.st.Codec().RatioDriven() {
		hardest = 1
	}
	out.HardestInvRatioMilli = uint64(math.Round(1000 / hardest))
	return out
}

// dropCompressPeer evicts a peer's residual and adaptive-ratio state.
func (v *Vector) dropCompressPeer(rank int) {
	if v.comp == nil {
		return
	}
	v.comp.st.DropPeer(rank)
	if v.comp.ctl != nil {
		v.comp.ctl.DropPeer(rank)
	}
}

// scatterCompressed pushes the local value to peers (nil = the dataflow
// send list) as per-destination codec frames, fragmented per bucket when
// the vector is bucketed.
func (v *Vector) scatterCompressed(peers []int, iter uint64) ([]int, error) {
	if peers == nil {
		peers = v.seg.SendPeers()
	}
	v.scatterID++
	var failed []int
	for _, peer := range peers {
		v.comp.st.Begin(peer, v.data, v.comp.ratio(peer))
		if v.bucket == nil {
			frame := v.comp.st.EncodeRange(v.encBuf[:0], 0, v.dim)
			f, err := v.scatterToOne(peer, frame, iter)
			if err != nil {
				return failed, err
			}
			failed = mergeFailed(failed, f)
			continue
		}
		for b := 0; b < v.bucket.buckets; b++ {
			lo, hi := v.bucket.bucketRange(v.dim, b)
			payload := v.comp.st.EncodeRange(v.bucket.appendHeader(v.encBuf[:0], v.scatterID, lo, hi), lo, hi)
			v.bucket.perf.FragmentsSent++
			f, err := v.scatterToOne(peer, payload, iter)
			if err != nil {
				return failed, err
			}
			failed = mergeFailed(failed, f)
		}
	}
	if v.comp.ctl != nil {
		v.comp.ctl.Tick(peers)
	}
	return failed, nil
}

// scatterToOne sends one payload to a single destination, reusing the
// vector's one-peer slice.
func (v *Vector) scatterToOne(peer int, payload []byte, iter uint64) ([]int, error) {
	v.peerBuf = append(v.peerBuf[:0], peer)
	//maltlint:allow bufretain -- Segment encodes payload into its own buffer synchronously before enqueue (same contract ScatterBucket relies on)
	return v.seg.ScatterTo(v.peerBuf, payload, iter)
}

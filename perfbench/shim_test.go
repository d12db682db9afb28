package main

import (
	"testing"

	"malt/internal/consistency"
	"malt/internal/data"
)

// tinyBSP returns small bulk-synchronous configurations of the in-process
// and the socket workloads, quick enough for unit tests.
func tinyBSP() []workload {
	return []workload{
		{
			Name: "tiny-inproc", Shape: data.RCV1Shape, Train: 1000, Test: 200,
			Lambda: 1e-5, Eta0: 1, Sparse: true, Sync: consistency.BSP,
			Steps: 100, SnapEvery: 5, SerialExamples: 1000, SerialSnapEvery: 100, TargetFrac: 0.5,
		},
		{
			Name: "tiny-tcp", Shape: data.AlphaShape, Train: 400, Test: 100,
			Lambda: 1e-5, Eta0: 0.05, Sync: consistency.BSP, TCP: true,
			Steps: 100, SnapEvery: 5, SerialExamples: 1000, SerialSnapEvery: 100, TargetFrac: 0.5,
		},
	}
}

// TestShimLeavesTheModelUnchanged trains the same bulk-synchronous run with
// and without the timing shims and requires the bit-identical model.
func TestShimLeavesTheModelUnchanged(t *testing.T) {
	for _, w := range tinyBSP() {
		t.Run(w.Name, func(t *testing.T) {
			plain, err := runTrial(w, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(ranks)
			traced, err := runTrial(w, 5, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest != traced.Digest {
				t.Fatalf("shimmed model digest %s, unshimmed %s", traced.Digest, plain.Digest)
			}
			counts := map[string]int{}
			for _, s := range traced.Spans {
				counts[s.Name]++
			}
			write := "fabric.write"
			if w.TCP {
				write = "stream.write"
			}
			for _, name := range []string{"step", "svm.train", "vol.scatter", "vol.gather", "vol.fold", "consistency.advance", write, "dstorm.deposit"} {
				if counts[name] == 0 {
					t.Errorf("no %s spans recorded (have %v)", name, counts)
				}
			}
			if want := ranks * w.Steps; counts["step"] != want {
				t.Errorf("%d step spans, want %d", counts["step"], want)
			}
		})
	}
}

// TestInlineDepositNestsUnderItsWrite checks the parent links self times
// rest on: in process, a deposit runs inside the write that made it, and
// a synchronous write inside the scatter that issued it.
func TestInlineDepositNestsUnderItsWrite(t *testing.T) {
	w := tinyBSP()[0]
	traced, err := runTrial(w, 6, newTracer(ranks))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range traced.Spans {
		var want string
		switch s.Name {
		case "dstorm.deposit":
			want = "fabric.write"
		case "fabric.write":
			want = "vol.scatter"
		case "vol.fold":
			want = "vol.gather"
		default:
			continue
		}
		if s.Parent == noParent || traced.Spans[s.Parent].Name != want {
			t.Fatalf("%s span %d has parent %d, want a %s", s.Name, s.ID, s.Parent, want)
		}
	}
}

package core

import (
	"sync"
	"testing"

	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/fabric/tcpnet"
	"malt/internal/ml/svm"
	"malt/internal/vol"
)

// runOverTCP runs fn on every rank of a loopback tcpnet cluster, one
// Cluster per rank driven by RunLocal — the shape of separate OS
// processes, sharing nothing but the sockets. It returns the per-rank
// clusters (for traffic checks) after every replica has finished.
func runOverTCP(t *testing.T, cfg Config, fn func(ctx *Context) error) []*Cluster {
	t.Helper()
	nets, err := tcpnet.Loopback(cfg.Ranks, tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]*Cluster, cfg.Ranks)
	for r := range clusters {
		rc := cfg
		rc.Transport = nets[r]
		if clusters[r], err = NewCluster(rc); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, c := range clusters {
			c.Close()
		}
	})
	errs := make([]error, cfg.Ranks)
	var wg sync.WaitGroup
	for r, c := range clusters {
		wg.Add(1)
		go func(r int, c *Cluster) {
			defer wg.Done()
			res, err := c.RunLocal(r, fn)
			if err == nil {
				err = res.FirstError()
			}
			errs[r] = err
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return clusters
}

// TestDistributedSVMOverTCP drives the full stack — runtime, vol, dstorm,
// consistency — over loopback TCP sockets instead of in-process memory
// copies: real sockets, real serialization, same results.
func TestDistributedSVMOverTCP(t *testing.T) {
	ds, err := data.GenerateClassification(data.ClassificationSpec{
		Name: "t", Dim: 60, Train: 1200, Test: 300, NNZ: 8, Noise: 0.03, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	const cb = 100
	finals := make([][]float64, 3)
	clusters := runOverTCP(t, Config{Ranks: 3, Sync: consistency.BSP}, func(ctx *Context) error {
		g, err := ctx.CreateVector("grad", vol.Dense, ds.Dim)
		if err != nil {
			return err
		}
		tr, err := svm.New(svm.Config{Dim: ds.Dim, Lambda: 1e-4, Eta0: 1})
		if err != nil {
			return err
		}
		w := make([]float64, ds.Dim)
		before := make([]float64, ds.Dim)
		lo, hi, err := ctx.Shard(len(ds.Train))
		if err != nil {
			return err
		}
		shard := ds.Train[lo:hi]
		iter := uint64(0)
		for epoch := 0; epoch < 5; epoch++ {
			for at := 0; at+cb <= len(shard); at += cb {
				copy(before, w)
				ctx.Compute(func() { tr.TrainEpoch(w, shard[at:at+cb]) })
				for i := range w {
					g.Data()[i] = w[i] - before[i]
				}
				iter++
				ctx.SetIteration(iter)
				if err := ctx.Scatter(g); err != nil {
					return err
				}
				if err := ctx.Advance(g); err != nil {
					return err
				}
				if _, err := ctx.Gather(g, vol.Average); err != nil {
					return err
				}
				for i := range w {
					w[i] = before[i] + g.Data()[i]
				}
				if err := ctx.Commit(g); err != nil {
					return err
				}
			}
		}
		finals[ctx.Rank()] = w
		return nil
	})
	tr, _ := svm.New(svm.Config{Dim: ds.Dim})
	if acc := tr.Accuracy(finals[0], ds.Test); acc < 0.85 {
		t.Fatalf("TCP-transport accuracy %v too low", acc)
	}
	// BSP all-to-all over TCP must still produce identical replicas.
	for r := 1; r < 3; r++ {
		for i := range finals[0] {
			if finals[0][i] != finals[r][i] {
				t.Fatalf("replicas diverged over TCP at %d", i)
			}
		}
	}
	if clusters[0].Transport().Stats().TotalBytes() == 0 {
		t.Fatal("no traffic accounted over TCP")
	}
}

// TestTransportsProduceIdenticalModels pins that the transport is
// semantically invisible: the same BSP all-to-all training run produces
// bit-identical models over in-process memory copies and over TCP.
func TestTransportsProduceIdenticalModels(t *testing.T) {
	ds, err := data.GenerateClassification(data.ClassificationSpec{
		Name: "t", Dim: 40, Train: 800, Test: 100, NNZ: 6, Noise: 0.05, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 2, Sync: consistency.BSP}
	replica := func(final []float64) func(ctx *Context) error {
		return func(ctx *Context) error {
			g, err := ctx.CreateVector("grad", vol.Dense, ds.Dim)
			if err != nil {
				return err
			}
			tr, err := svm.New(svm.Config{Dim: ds.Dim})
			if err != nil {
				return err
			}
			w := make([]float64, ds.Dim)
			before := make([]float64, ds.Dim)
			lo, hi, err := ctx.Shard(len(ds.Train))
			if err != nil {
				return err
			}
			shard := ds.Train[lo:hi]
			const cb = 100
			for it := 0; it+cb <= len(shard); it += cb {
				copy(before, w)
				tr.TrainEpoch(w, shard[it:it+cb])
				for i := range w {
					g.Data()[i] = w[i] - before[i]
				}
				ctx.SetIteration(uint64(it + 1))
				if err := ctx.Scatter(g); err != nil {
					return err
				}
				if err := ctx.Advance(g); err != nil {
					return err
				}
				if _, err := ctx.Gather(g, vol.Average); err != nil {
					return err
				}
				for i := range w {
					w[i] = before[i] + g.Data()[i]
				}
				if err := ctx.Commit(g); err != nil {
					return err
				}
			}
			if ctx.Rank() == 0 {
				copy(final, w)
			}
			return nil
		}
	}

	inproc := make([]float64, ds.Dim)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(replica(inproc)).FirstError(); err != nil {
		t.Fatal(err)
	}
	tcp := make([]float64, ds.Dim)
	runOverTCP(t, cfg, replica(tcp))
	for i := range inproc {
		if inproc[i] != tcp[i] {
			t.Fatalf("transports diverged at %d: %v vs %v", i, inproc[i], tcp[i])
		}
	}
}

// Package tcpnet is the TCP flavor of the shared framed-stream transport
// (internal/fabric/stream): MALT's one-sided writes emulated over
// persistent pooled loopback (or LAN) connections between OS processes,
// with windowed write pipelining and cumulative acks. The machinery — the
// frame codec, the control/data connection split, the sliding window, the
// rendezvous, barrier and join protocols — lives in the stream package;
// this package only pins the network to TCP.
package tcpnet

import (
	"errors"
	"net"
	"sync"

	"malt/internal/fabric/stream"
)

// Net is one rank's endpoint of a TCP cluster; see stream.Net.
type Net = stream.Net

// Config describes one rank of a TCP cluster; see stream.Config. The
// Network field is forced to TCP by New.
type Config = stream.Config

// Frame is one length-prefixed protocol message; see stream.Frame.
type Frame = stream.Frame

// Re-exported stream defaults, kept for existing callers.
const (
	DefaultDialTimeout       = stream.DefaultDialTimeout
	DefaultAckTimeout        = stream.DefaultAckTimeout
	DefaultRendezvousTimeout = stream.DefaultRendezvousTimeout
	DefaultBarrierTimeout    = stream.DefaultBarrierTimeout
	DefaultHeartbeatInterval = stream.DefaultHeartbeatInterval
	DefaultHeartbeatStrikes  = stream.DefaultHeartbeatStrikes
	DefaultWindowFrames      = stream.DefaultWindowFrames
	DefaultWindowBytes       = stream.DefaultWindowBytes
	MaxKeyLen                = stream.MaxKeyLen
	MaxBody                  = stream.MaxBody
)

// New binds this rank's TCP listener and starts its receiver loop. The
// returned Net is not usable for data operations until Rendezvous has
// completed on every rank.
func New(cfg Config) (*Net, error) {
	cfg.Network = stream.NetworkTCP
	return stream.New(cfg)
}

// Loopback builds a ranks-endpoint cluster inside one process: it binds a
// 127.0.0.1:0 listener per rank, creates every endpoint from cfg (Rank,
// Peers and Listener filled in) and runs the all-rank Rendezvous. Tests and
// benchmarks use it to drive real sockets without separate OS processes.
// On error every endpoint built so far is closed.
func Loopback(ranks int, cfg Config) ([]*Net, error) {
	lns := make([]net.Listener, 0, ranks)
	peers := make([]string, 0, ranks)
	nets := make([]*Net, 0, ranks)
	closeAll := func() {
		for _, n := range nets {
			_ = n.Close() // abandoning a failed build
		}
		for _, ln := range lns[len(nets):] {
			_ = ln.Close()
		}
	}
	for i := 0; i < ranks; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		lns = append(lns, ln)
		peers = append(peers, ln.Addr().String())
	}
	for i := 0; i < ranks; i++ {
		c := cfg
		c.Rank, c.Peers, c.Listener = i, peers, lns[i]
		n, err := New(c)
		if err != nil {
			closeAll()
			return nil, err
		}
		nets = append(nets, n)
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i, n := range nets {
		wg.Add(1)
		go func(i int, n *Net) {
			defer wg.Done()
			errs[i] = n.Rendezvous()
		}(i, n)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeAll()
		return nil, err
	}
	return nets, nil
}

package fabric_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malt/internal/fabric"
	"malt/internal/fabric/tcpnet"
)

// The Transport contract over real sockets: the error taxonomy and
// delivery guarantees of fabric.Transport, checked on the TCP transport
// (fabric/tcpnet). Each Net is one rank's endpoint, so a write is issued
// on the sender's Net and its handler is registered on the receiver's.

// newTCP builds a ranks-endpoint loopback cluster. WindowFrames 1 makes
// every Write wait for its own ack, so the receiver's handler has run (and
// its error reached the sender) before Write returns.
func newTCP(t *testing.T, ranks int) []*tcpnet.Net {
	t.Helper()
	nets, err := tcpnet.Loopback(ranks, tcpnet.Config{
		WindowFrames:      1,
		DialTimeout:       time.Second,
		AckTimeout:        2 * time.Second,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, n := range nets {
			n.Close()
		}
	})
	return nets
}

// Compile-time check that the TCP endpoint honors the contract under test.
var _ fabric.Transport = (*tcpnet.Net)(nil)

func TestTCPWriteDelivers(t *testing.T) {
	nets := newTCP(t, 2)
	got := make(chan []byte, 1)
	var from atomic.Int64
	from.Store(-1)
	if err := nets[1].Register(1, "seg", func(sender int, p []byte) error {
		from.Store(int64(sender))
		got <- append([]byte(nil), p...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 10000)
	if err := nets[0].Write(0, 1, "seg", payload); err != nil {
		t.Fatal(err)
	}
	// The ack guarantees the handler ran before Write returned.
	select {
	case p := <-got:
		if !bytes.Equal(p, payload) {
			t.Fatal("payload corrupted over TCP")
		}
	default:
		t.Fatal("handler did not run before ack")
	}
	if s := from.Load(); s != 0 {
		t.Fatalf("sender = %d", s)
	}
	if b := nets[0].Stats().BytesSent(0); b != uint64(len(payload)) {
		t.Fatalf("bytes sent = %d, want %d", b, len(payload))
	}
}

func TestTCPUnregisteredKeyRejected(t *testing.T) {
	nets := newTCP(t, 2)
	if err := nets[0].Write(0, 1, "nope", []byte("x")); !errors.Is(err, fabric.ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", err)
	}
}

func TestTCPHandlerErrorSurfacesToSender(t *testing.T) {
	nets := newTCP(t, 2)
	if err := nets[1].Register(1, "seg", func(int, []byte) error {
		return errors.New("receiver rejects")
	}); err != nil {
		t.Fatal(err)
	}
	if err := nets[0].Write(0, 1, "seg", []byte("x")); err == nil {
		t.Fatal("handler error should surface as failed write")
	}
}

func TestTCPDeadRankUnreachable(t *testing.T) {
	nets := newTCP(t, 3)
	if err := nets[2].Register(2, "seg", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := nets[2].Kill(2); err != nil {
		t.Fatal(err)
	}
	// Peers learn of the death by heartbeat strike-out.
	deadline := time.Now().Add(10 * time.Second)
	for nets[0].Alive(2) {
		if time.Now().After(deadline) {
			t.Fatal("rank 0 never marked rank 2 dead")
		}
		//maltlint:allow rawsleep -- bounded poll for heartbeat strike-out; no fabric retry involved
		time.Sleep(5 * time.Millisecond)
	}
	if err := nets[0].Write(0, 2, "seg", []byte("x")); !errors.Is(err, fabric.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPConcurrentWrites(t *testing.T) {
	const ranks, writes = 4, 60
	nets := newTCP(t, ranks)
	var count [ranks]atomic.Int64
	for r := range nets {
		r := r
		if err := nets[r].Register(r, "seg", func(int, []byte) error {
			count[r].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for from := range nets {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				to := (from + 1 + i%(ranks-1)) % ranks
				if err := nets[from].Write(from, to, "seg", []byte{byte(i)}); err != nil {
					t.Errorf("write %d->%d: %v", from, to, err)
					return
				}
			}
		}(from)
	}
	wg.Wait()
	var total int64
	for r := range count {
		total += count[r].Load()
	}
	if total != ranks*writes {
		t.Fatalf("delivered %d writes, want %d", total, ranks*writes)
	}
}

// TestTCPPingPong: two ranks alternate writes, each waiting for the other's
// deposit, so both directions of the link carry ordered traffic.
func TestTCPPingPong(t *testing.T) {
	nets := newTCP(t, 2)
	recv0 := make(chan byte, 16)
	recv1 := make(chan byte, 16)
	if err := nets[0].Register(0, "pp", func(_ int, p []byte) error { recv0 <- p[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := nets[1].Register(1, "pp", func(_ int, p []byte) error { recv1 <- p[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 10; i++ {
		if err := nets[0].Write(0, 1, "pp", []byte{i}); err != nil {
			t.Fatal(err)
		}
		if got := <-recv1; got != i {
			t.Fatalf("rank1 got %d, want %d", got, i)
		}
		if err := nets[1].Write(1, 0, "pp", []byte{i + 100}); err != nil {
			t.Fatal(err)
		}
		if got := <-recv0; got != i+100 {
			t.Fatalf("rank0 got %d, want %d", got, i+100)
		}
	}
}

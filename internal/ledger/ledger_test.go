package ledger

import (
	"errors"
	"math"
	"testing"

	"truthroute/internal/auth"
	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// fixture returns a keyring, ledger and the Figure-2 quote for
// v1 → v0 (total payment 6 across relays 2, 3, 4).
func fixture(t *testing.T, balance float64) (auth.Keyring, *Ledger, *core.Quote) {
	t.Helper()
	g := graph.Figure2()
	q, err := core.UnicastQuote(g, 1, 0, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	kr := auth.NewKeyring(g.N())
	return kr, New(kr, 0, balance), q
}

func TestSettleUplink(t *testing.T) {
	kr, l, q := fixture(t, 100)
	pkt := auth.NewPacket(kr[1], 1, 1, 0, []byte("data"))
	ack := auth.NewAck(kr[0], 0, 1, 1, 0)
	if err := l.SettleUplink(pkt, ack, q, 3); err != nil {
		t.Fatal(err)
	}
	if got := l.Balance(1); got != 100-18 {
		t.Errorf("source balance = %v, want 82 (3 packets x total 6)", got)
	}
	for _, k := range []int{2, 3, 4} {
		if got := l.Balance(k); got != 106 {
			t.Errorf("relay %d balance = %v, want 106", k, got)
		}
	}
	if got := l.TotalCirculating(); got != 700 {
		t.Errorf("circulating = %v, want 700 (conserved)", got)
	}
}

func TestSettleUplinkRejections(t *testing.T) {
	kr, l, q := fixture(t, 100)
	good := auth.NewPacket(kr[1], 1, 1, 0, []byte("data"))
	goodAck := auth.NewAck(kr[0], 0, 1, 1, 0)

	forged := good
	forged.Payload = []byte("evil")
	if err := l.SettleUplink(forged, goodAck, q, 1); err == nil {
		t.Error("forged packet settled")
	}
	// Packet signed by someone other than the quote's source.
	other := auth.NewPacket(kr[5], 5, 1, 0, []byte("data"))
	if err := l.SettleUplink(other, goodAck, q, 1); err == nil {
		t.Error("source mismatch settled")
	}
	// Ack signed by a non-AP key (free-riding relay minting receipts).
	badAck := auth.NewAck(kr[2], 0, 1, 1, 0)
	if err := l.SettleUplink(good, badAck, q, 1); err == nil {
		t.Error("forged ack settled")
	}
	// Ack for a different session.
	wrongAck := auth.NewAck(kr[0], 0, 1, 9, 0)
	if err := l.SettleUplink(good, wrongAck, q, 1); err == nil {
		t.Error("mismatched ack settled")
	}
	if err := l.SettleUplink(good, goodAck, q, 0); err == nil {
		t.Error("zero packets settled")
	}
	// Double settlement of the same (session, seq).
	if err := l.SettleUplink(good, goodAck, q, 1); err != nil {
		t.Fatalf("first settle failed: %v", err)
	}
	if err := l.SettleUplink(good, goodAck, q, 1); err == nil {
		t.Error("double settlement accepted")
	}
}

func TestSettleUplinkInsufficientFunds(t *testing.T) {
	kr, l, q := fixture(t, 5) // total owed is 6
	pkt := auth.NewPacket(kr[1], 1, 1, 0, nil)
	ack := auth.NewAck(kr[0], 0, 1, 1, 0)
	err := l.SettleUplink(pkt, ack, q, 1)
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
	if l.Balance(1) != 5 || l.Balance(2) != 5 {
		t.Error("failed settlement moved money")
	}
}

func TestSettleMonopolyRejected(t *testing.T) {
	g := graph.NewNodeGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetCosts([]float64{0, 2, 0})
	q, err := core.UnicastQuote(g, 2, 0, core.EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(q.Total(), 1) {
		t.Fatal("fixture should have a monopoly")
	}
	kr := auth.NewKeyring(3)
	l := New(kr, 0, 1000)
	pkt := auth.NewPacket(kr[2], 2, 1, 0, nil)
	ack := auth.NewAck(kr[0], 0, 2, 1, 0)
	if err := l.SettleUplink(pkt, ack, q, 1); !errors.Is(err, ErrMonopoly) {
		t.Fatalf("err = %v, want ErrMonopoly", err)
	}
}

func TestSettleDownlink(t *testing.T) {
	kr, l, q := fixture(t, 100)
	acks := []auth.Ack{
		auth.NewAck(kr[2], 2, 1, 7, 0),
		auth.NewAck(kr[3], 3, 1, 7, 0),
		auth.NewAck(kr[4], 4, 1, 7, 0),
	}
	unacked, err := l.SettleDownlink(7, q, acks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(unacked) != 0 {
		t.Errorf("unacked = %v, want none", unacked)
	}
	if got := l.Balance(1); got != 100-12 {
		t.Errorf("source balance = %v, want 88", got)
	}
}

func TestSettleDownlinkPartialAcks(t *testing.T) {
	kr, l, q := fixture(t, 100)
	acks := []auth.Ack{
		auth.NewAck(kr[2], 2, 1, 7, 0),
		auth.NewAck(kr[4], 4, 1, 8, 0), // wrong session: ignored
		auth.NewAck(kr[2], 3, 1, 7, 0), // forged for node 3: ignored
	}
	unacked, err := l.SettleDownlink(7, q, acks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(unacked) != 2 {
		t.Fatalf("unacked = %v, want two relays", unacked)
	}
	if got := l.Balance(2); got != 102 {
		t.Errorf("acked relay balance = %v, want 102", got)
	}
	if l.Balance(3) != 100 || l.Balance(4) != 100 {
		t.Error("unacked relays were paid")
	}
	if got := l.Balance(1); got != 98 {
		t.Errorf("source charged %v, want only the acked relay's 2", 100-got)
	}
}

// TestTotalCirculatingIsOrderFree: with balances that are not exact
// binary fractions, the total must come out bit-identical on every
// call, whatever order the account map iterates in.
func TestTotalCirculatingIsOrderFree(t *testing.T) {
	l := New(auth.NewKeyring(60), 0, 1.0/3)
	for v := range l.balances {
		l.balances[v] += 0.1 * float64(v)
	}
	want := math.Float64bits(l.TotalCirculating())
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(l.TotalCirculating()); got != want {
			t.Fatalf("call %d: total bits %#x, want %#x", i, got, want)
		}
	}
}

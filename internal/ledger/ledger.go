// Package ledger implements the clearing house §III.H places at the
// access point: "All payment transactions are conducted at the
// access point v_0. Each node v_i has a secure account at node v_0."
//
// Uplink: when the access point receives a packet from v_i it
// verifies the initiator's signature (repudiation defence), issues a
// signed acknowledgement (free-riding defence — relays are paid only
// for traffic the access point confirms), then pays each relay on
// the least cost path its quoted p_i^k and charges v_i the total.
//
// Downlink: when v_i retrieves data from v_0, each relay returns a
// signed acknowledgement after forwarding; only acknowledged relays
// are credited, and v_i is charged accordingly.
//
// Per §II.C, a session of s packets settles at s times the per-packet
// quote.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"truthroute/internal/auth"
	"truthroute/internal/core"
)

// payees returns the relay ids of a quote's payment map in sorted
// order, so settlement credits accounts in a replica-independent
// order.
func payees(q *core.Quote) []int {
	keys := make([]int, 0, len(q.Payments))
	for k := range q.Payments {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// ErrInsufficientFunds rejects a charge that would overdraw the
// payer's account.
var ErrInsufficientFunds = errors.New("ledger: insufficient funds")

// ErrMonopoly rejects settlement of a quote containing an unbounded
// (monopolist) payment.
var ErrMonopoly = errors.New("ledger: quote contains an unbounded monopoly payment")

// Ledger is the access point's account book.
type Ledger struct {
	kr       auth.Keyring
	ap       int
	balances map[int]float64
	// seen guards against double-settling the same (session, seq).
	seen map[[2]uint64]bool
}

// New creates a ledger at access point ap, opening an account with
// the given initial balance for every key holder.
func New(kr auth.Keyring, ap int, initialBalance float64) *Ledger {
	l := &Ledger{kr: kr, ap: ap, balances: map[int]float64{}, seen: map[[2]uint64]bool{}}
	for node := range kr {
		l.balances[node] = initialBalance
	}
	return l
}

// Balance returns a node's current account balance.
func (l *Ledger) Balance(node int) float64 { return l.balances[node] }

// quoteTotal validates a quote for settlement and returns its total.
func quoteTotal(q *core.Quote, packets int) (float64, error) {
	if packets <= 0 {
		return 0, fmt.Errorf("ledger: non-positive packet count %d", packets)
	}
	total := q.Total() * float64(packets)
	if math.IsInf(total, 1) {
		return 0, ErrMonopoly
	}
	return total, nil
}

// SettleUplink clears a session of `packets` identical-route packets
// from q.Source to the access point. pkt is the session's (first)
// signed packet — the proof the source initiated the traffic — and
// apAck is the access point's signed receipt, which the protocol
// requires before any relay is paid. The source is charged
// packets·Σp_i^k and every relay credited packets·p_i^k.
func (l *Ledger) SettleUplink(pkt auth.Packet, apAck auth.Ack, q *core.Quote, packets int) error {
	if err := auth.Verify(l.kr, pkt); err != nil {
		return fmt.Errorf("ledger: uplink rejected: %w", err)
	}
	if pkt.Source != q.Source {
		return fmt.Errorf("ledger: packet source %d does not match quote source %d", pkt.Source, q.Source)
	}
	if err := auth.VerifyAck(l.kr, apAck); err != nil {
		return fmt.Errorf("ledger: uplink unacknowledged: %w", err)
	}
	if apAck.Dest != l.ap || apAck.Source != pkt.Source || apAck.Session != pkt.Session {
		return fmt.Errorf("ledger: acknowledgement does not match packet")
	}
	key := [2]uint64{pkt.Session, pkt.Seq}
	if l.seen[key] {
		return fmt.Errorf("ledger: session %d seq %d already settled", pkt.Session, pkt.Seq)
	}
	total, err := quoteTotal(q, packets)
	if err != nil {
		return err
	}
	if l.balances[q.Source] < total {
		return fmt.Errorf("%w: node %d has %g, owes %g", ErrInsufficientFunds, q.Source, l.balances[q.Source], total)
	}
	l.seen[key] = true
	l.balances[q.Source] -= total
	for _, k := range payees(q) {
		l.balances[k] += q.Payments[k] * float64(packets)
	}
	return nil
}

// SettleDownlink clears a retrieval session: the access point sent
// `packets` packets down to q.Source along the reversed least cost
// path, and each relay proved its forwarding with a signed
// acknowledgement. Only acknowledged relays are credited; the source
// is charged exactly what was credited. Unacknowledged relays are
// returned so the caller can retry or investigate.
func (l *Ledger) SettleDownlink(session uint64, q *core.Quote, acks []auth.Ack, packets int) (unacked []int, err error) {
	if _, err := quoteTotal(q, packets); err != nil {
		return nil, err
	}
	valid := map[int]bool{}
	for _, a := range acks {
		if a.Session != session || a.Source != q.Source {
			continue
		}
		if auth.VerifyAck(l.kr, a) == nil {
			valid[a.Dest] = true
		}
	}
	due := 0.0
	for _, k := range payees(q) {
		if valid[k] {
			due += q.Payments[k] * float64(packets)
		} else {
			unacked = append(unacked, k)
		}
	}
	if l.balances[q.Source] < due {
		return nil, fmt.Errorf("%w: node %d has %g, owes %g", ErrInsufficientFunds, q.Source, l.balances[q.Source], due)
	}
	l.balances[q.Source] -= due
	for _, k := range payees(q) {
		if !valid[k] {
			continue
		}
		l.balances[k] += q.Payments[k] * float64(packets)
	}
	return unacked, nil
}

// TotalCirculating returns the sum of all balances; settlement only
// moves money between accounts, so this is invariant — a property
// the tests rely on. It sums in account order: float addition is not
// associative, so a map-order sum could differ in its last bits from
// one call to the next.
func (l *Ledger) TotalCirculating() float64 {
	nodes := make([]int, 0, len(l.balances))
	for v := range l.balances {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	t := 0.0
	for _, v := range nodes {
		t += l.balances[v]
	}
	return t
}

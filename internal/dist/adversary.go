package dist

// This file implements the protocol deviations §III.D worries about.
// Each adversary embeds an HonestNode and perturbs exactly one
// behaviour, so tests can attribute every detection to one deviation.
// The roster spans the detection surface: stage-1 mutual correction
// (EdgeHider, SelectiveDropper, Equivocator), stage-2 trigger
// verification (Underpayer, Overpayer), the signature layer
// (Impersonator, Tamperer), the generation replay window (Replayer),
// and the quorum/eviction loop itself (ColludingPair). Mute rounds
// out the taxonomy as the one deviation that is *not* evictable
// evidence: silence is indistinguishable from absence, so the
// protocol routes and prices around a mute node instead of accusing
// it.

import (
	"math"
	"slices"
)

// EdgeHider replays the Figure-2 attack: it pretends its link to
// Hidden does not exist, ignoring everything Hidden sends (SPT
// announcements *and* reliable-channel corrections) so that its own
// shortest path — and hence its total payment — avoids routes
// through Hidden. Algorithm 2's stage-1 mutual correction exposes
// it: Hidden keeps offering the better route and eventually accuses.
type EdgeHider struct {
	HonestNode
	Hidden int
}

// Step implements Behavior, dropping all traffic from Hidden.
func (e *EdgeHider) Step(round int, inbox []Message) []Message {
	kept := inbox[:0:0]
	for _, m := range inbox {
		if m.From != e.Hidden {
			kept = append(kept, m)
		}
	}
	return e.HonestNode.Step(round, kept)
}

// SelectiveDropper generalizes EdgeHider to a victim *set*: it
// silently discards every frame whose claimed sender is in Victims,
// partitioning itself away from part of its neighbourhood while
// behaving honestly toward the rest. Any victim that can offer it a
// better route detects it exactly like the hidden-edge attack: the
// correction goes unanswered past the grace window.
type SelectiveDropper struct {
	HonestNode
	Victims []int
}

// Step implements Behavior, dropping all traffic from the victim set.
// Like the price cheats, it swallows its own outgoing accusations: the
// partial view its dropping creates makes its audit recomputations
// diverge from its neighbours' honest state — discrepancies of its own
// making that a rational cheater would not advertise.
func (s *SelectiveDropper) Step(round int, inbox []Message) []Message {
	kept := inbox[:0:0]
	for _, m := range inbox {
		if !slices.Contains(s.Victims, m.From) {
			kept = append(kept, m)
		}
	}
	out := s.HonestNode.Step(round, kept)
	filtered := out[:0:0]
	for _, m := range out {
		if m.Accuse == nil {
			filtered = append(filtered, m)
		}
	}
	return filtered
}

// Underpayer replays the §III.D payment-manipulation attack: it runs
// the protocol faithfully but announces (and books) price entries
// scaled by Factor < 1 — "running a different algorithm that
// computes prices more favorable to them" in Feigenbaum et al.'s
// words. Trigger verification exposes it: the neighbour that
// produced each entry recomputes the value and sees the
// understatement.
type Underpayer struct {
	HonestNode
	Factor float64
}

// Step implements Behavior, deflating every announced price. The
// announcement is cloned before the perturbation: the honest core
// keeps references to the maps it announced, so mutating in place
// would corrupt the adversary's own replica state.
//
// The cheat also swallows its own outgoing accusations: its
// neighbours' entries derive from its deflated announcements, so its
// honest verification core would "catch" them understating — a
// discrepancy the cheat itself manufactured. Reporting it would
// invite exactly the §III.H record audit that convicts the cheat, so
// a rational cheater keeps its head down (and the quorum layer
// additionally voids a convict's testimony, see applyQuorum).
func (u *Underpayer) Step(round int, inbox []Message) []Message {
	out := u.HonestNode.Step(round, inbox)
	kept := out[:0:0]
	for _, m := range out {
		if m.Accuse != nil {
			continue
		}
		if m.Price != nil {
			scaled := m.Price.Clone()
			for k := range scaled.Prices {
				scaled.Prices[k] *= u.Factor
			}
			m.Price = scaled
		}
		kept = append(kept, m)
	}
	return kept
}

// Overpayer is the inflation mirror of Underpayer: it announces price
// entries scaled by Factor > 1, overstating what relays are owed to
// widen its take (a relay that inflates the entries it reports keeps
// the difference in a settlement system). Trigger verification's
// overstatement check exposes it: the claimed trigger recomputes the
// candidate, sees a value persistently above it, and accuses once the
// grace window rules out a stale-entry transient.
type Overpayer struct {
	HonestNode
	Factor float64
}

// Step implements Behavior, inflating every announced finite price.
// Like Underpayer, it swallows its own outgoing accusations: the
// discrepancies its verification core observes in neighbours that
// echoed its inflated entries are of its own making.
func (o *Overpayer) Step(round int, inbox []Message) []Message {
	out := o.HonestNode.Step(round, inbox)
	kept := out[:0:0]
	for _, m := range out {
		if m.Accuse != nil {
			continue
		}
		if m.Price != nil {
			scaled := m.Price.Clone()
			for k, p := range scaled.Prices {
				if !math.IsInf(p, 1) {
					scaled.Prices[k] = p * o.Factor
				}
			}
			m.Price = scaled
		}
		kept = append(kept, m)
	}
	return kept
}

// Equivocator mounts the conflicting-announcements attack: instead of
// one broadcast, it unicasts *different* stage-1 states to different
// neighbours — the truth to its first hop (which could verify it as
// a parent), a wildly inflated distance to everyone else (chasing
// whatever local advantage looks best; the inflated variant also
// makes neighbours route around it). The non-first-hop neighbours see
// a node whose announced distance they can beat, offer the correction
// Algorithm 2 prescribes, and accuse when the equivocator's honest
// core — which knows its true, better distance — keeps refusing.
type Equivocator struct {
	HonestNode
	// Skew is added to the distance in the lying announcements
	// (default 1e6 — far above any honest route).
	Skew float64
}

// Step implements Behavior, splitting each SPT broadcast into
// per-neighbour unicasts with conflicting contents. Its own outgoing
// accusations are swallowed: the neighbours it lied to hold state
// derived from the skewed announcements, so its honest verification
// core would "catch" them over discrepancies the equivocation itself
// manufactured — and testifying would only invite the §III.H audit
// (worse, a mutual cheater↔honest accusation pair would let the
// quorum's annulment rule void both testimonies).
func (e *Equivocator) Step(round int, inbox []Message) []Message {
	out := e.HonestNode.Step(round, inbox)
	skew := e.Skew
	if skew == 0 {
		skew = 1e6
	}
	var split []Message
	for _, m := range out {
		if m.Accuse != nil {
			continue
		}
		if m.SPT == nil || m.To != Broadcast {
			split = append(split, m)
			continue
		}
		for _, v := range e.net.Neighbors(e.self) {
			mm := m
			mm.To = v
			a := m.SPT.Clone()
			if v != e.st.FH && !math.IsInf(a.D, 1) {
				a.D += skew
			}
			mm.SPT = a
			split = append(split, mm)
		}
	}
	return split
}

// Replayer mounts the signed-replay attack: it records its own first
// SPT broadcast (generation 1, the pre-route announcement) and, once
// its state has moved past that generation, re-injects the recording
// every round. The network signs outgoing frames with the
// transmitter's key, so every replay carries a *valid* signature over
// *stale* content — the attack signatures alone cannot stop. The
// link layer's generation replay window (eviction.go) rejects the
// re-injections, and the rejection streak becomes an accusation.
type Replayer struct {
	HonestNode
	recorded *Message
}

// Step implements Behavior: honest behaviour plus one replayed
// broadcast per round once the recording has gone stale.
func (r *Replayer) Step(round int, inbox []Message) []Message {
	out := r.HonestNode.Step(round, inbox)
	if r.recorded == nil {
		for _, m := range out {
			if m.SPT != nil && m.To == Broadcast {
				mm := m
				mm.SPT = m.SPT.Clone()
				r.recorded = &mm
				break
			}
		}
		return out
	}
	if r.gen > r.recorded.SPT.Gen {
		replay := *r.recorded
		replay.SPT = r.recorded.SPT.Clone()
		out = append(out, replay)
	}
	return out
}

// Tamperer mounts the bit-flip attack on the signature layer: each
// round it signs an SPT broadcast of its current state, then perturbs
// the payload *after* signing — what goes on the air is a frame whose
// signature no longer matches its content (the network transmits
// pre-signed frames verbatim, exactly like a radio that sends
// whatever bytes it is handed). Every receiver's verification fails,
// the frame is dropped and counted, and the persistent failure streak
// on the transmitter's channels becomes an accusation. Its embedded
// honest core otherwise runs the protocol faithfully, so the tampered
// frames are *extra* traffic — which is what keeps the attack live
// long enough to convict (a one-shot flip is just a lost frame).
type Tamperer struct {
	HonestNode
}

// Step implements Behavior: honest behaviour plus one
// signed-then-corrupted broadcast per round.
func (t *Tamperer) Step(round int, inbox []Message) []Message {
	out := t.HonestNode.Step(round, inbox)
	if math.IsInf(t.st.D, 1) {
		return out
	}
	m := t.announceSPT()
	if t.net.SigningEnabled() {
		m.Sig = signMessage(t.net.keyring[t.self], &m)
	}
	m.SPT.D /= 2 // the post-signing flip: announce half the distance
	return append(out, m)
}

// Impersonator mounts the identity-forging attack that motivates
// §III.D's signing requirement: every round it also broadcasts an
// SPT announcement *claiming to be Victim* with a fabricated
// near-zero distance. Receivers that trust the From field relax
// through the victim and corrupt the SPT (or oscillate under the
// mutual corrections, triggering accusations against innocent
// nodes). With Network.EnableSigning the forgery cannot carry the
// victim's signature and is dropped at delivery.
type Impersonator struct {
	HonestNode
	Victim int
	// FakeD is the fabricated distance (default 0 — "the victim sits
	// next to the access point").
	FakeD float64
}

// Step implements Behavior: honest behaviour plus one forged
// broadcast per round.
func (im *Impersonator) Step(round int, inbox []Message) []Message {
	out := im.HonestNode.Step(round, inbox)
	forged := Message{From: im.Victim, To: Broadcast, SPT: &SPTAnnounce{
		D:    im.FakeD,
		FH:   im.net.Dest,
		Path: []int{im.Victim, im.net.Dest},
		Cost: im.net.Cost(im.Victim),
	}}
	return append(out, forged)
}

// Mute models a crashed or wholly selfish node that never transmits
// protocol messages at all (it still *occupies* its spot in the
// topology). The network must route and price around it; with
// biconnectivity it converges regardless. Mute is deliberately *not*
// an eviction target: a silent radio produces no evidence
// distinguishable from absence, and accusing absence would make every
// crash a conviction.
type Mute struct {
	HonestNode
}

// Step implements Behavior: silence.
func (m *Mute) Step(round int, inbox []Message) []Message {
	m.HonestNode.Step(round, inbox) // keep internal state for inspection
	return nil
}

// pairState is the out-of-band collusion channel of a colluding pair:
// the leader mirrors its announced route into it, and the eviction
// verdict against the leader is flagged so the partner can switch
// from shielding to propping.
type pairState struct {
	leader, partner int
	route           *SPTAnnounce // leader's latest announced state
	caught          bool         // leader has been evicted
}

// ColludingLeader is the cheating half of a colluding pair: an
// Underpayer that additionally mirrors its announcements to the
// partner over the collusion channel.
type ColludingLeader struct {
	Underpayer
	shared *pairState
}

// Step implements Behavior.
func (l *ColludingLeader) Step(round int, inbox []Message) []Message {
	out := l.Underpayer.Step(round, inbox)
	for _, m := range out {
		if m.SPT != nil {
			l.shared.route = m.SPT.Clone()
		}
	}
	return out
}

// ColludingPartner is the shielding half: it runs the protocol
// honestly except that (1) it suppresses every accusation its own
// verification would raise against the leader, and (2) when the
// quorum evicts the leader anyway, it refuses the verdict — it keeps
// the leader in its topology view, pins its route through it (using
// the collusion channel's copy of the leader's last announced state),
// and ignores the corrections honest neighbours offer. Both ploys are
// detected: shielding only thins the leader's accuser set (any honest
// trigger still convicts), and the post-eviction propping is caught
// by the evicted-route citation audit or the refused-correction
// streak, so the partner follows the leader out in the next epoch.
type ColludingPartner struct {
	HonestNode
	shared *pairState
}

// Step implements Behavior. Once the leader is caught the partner
// goes into propping mode: it ignores incoming corrections (they
// would talk it out of the ghost route), and every SPT announcement
// it emits is rewritten to advertise the route through the evicted
// leader — persistently, so honest receivers' citation streaks are
// never reset by a clean announcement.
func (p *ColludingPartner) Step(round int, inbox []Message) []Message {
	if p.shared.caught {
		kept := inbox[:0:0]
		for _, m := range inbox {
			if m.Correct == nil {
				kept = append(kept, m)
			}
		}
		inbox = kept
	}
	out := p.HonestNode.Step(round, inbox)
	kept := out[:0:0]
	for _, m := range out {
		if m.Accuse != nil && m.Accuse.Offender == p.shared.leader {
			continue // never testify against the partner in crime
		}
		if m.SPT != nil && p.shared.caught {
			if r := p.shared.route; r != nil && !math.IsInf(r.D, 1) {
				a := m.SPT.Clone()
				a.D = r.D + p.net.Cost(p.shared.leader)
				a.FH = p.shared.leader
				a.Path = append([]int{p.self}, r.Path...)
				m.SPT = a
			}
		}
		kept = append(kept, m)
	}
	return kept
}

// Evict implements Behavior: the partner honours every eviction
// except the leader's, which it refuses — from here on it props up
// the ghost (see Step).
func (p *ColludingPartner) Evict(o int) {
	if o != p.shared.leader {
		p.HonestNode.Evict(o)
		return
	}
	p.shared.caught = true
	p.dirty = true
}

// NewColludingPair wires a colluding pair sharing state out of band:
// leader underpays while partner shields it from the partner's own
// accusations and, post-eviction, props it up. The returned behaviors
// go at indices leader and partner of the NewNetwork behavior slice.
func NewColludingPair(leader, partner int, factor float64) (*ColludingLeader, *ColludingPartner) {
	shared := &pairState{leader: leader, partner: partner}
	l := &ColludingLeader{Underpayer: Underpayer{Factor: factor}, shared: shared}
	return l, &ColludingPartner{shared: shared}
}

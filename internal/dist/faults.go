package dist

// This file adds what the paper's §III.C–D protocols assume away: an
// unreliable radio channel. The paper specifies both distributed
// algorithms over reliable FIFO links, but its whole setting is
// wireless — frames drop (independently or in bursts), the MAC layer
// occasionally duplicates, and nodes crash and reboot. A FaultPlan
// injects those faults deterministically (seeded PCG, like every
// other source of randomness in this repository), and the Network
// grows a thin link-layer ARQ underneath the protocol so that the
// mechanism still converges to the exact centralized VCG payments —
// and, critically, so that Algorithm 2's cheater detection does not
// turn packet loss into false accusations.
//
// Layering. Reliability lives in the simulated link layer, not in
// Behavior implementations: every protocol frame (SPT announcement,
// price announcement, correction) gets a per-channel per-kind
// sequence number; receivers drop duplicates and stale frames and
// return an immediate MAC acknowledgement (the 802.11 ACK, which
// fits inside one protocol round); senders retransmit the *latest*
// unacknowledged frame per channel and kind on a timeout with capped
// exponential backoff. Latest-only retransmission is sound because
// every frame kind carries full state — a newer announcement
// supersedes an older one, exactly the soft-state property real
// routing protocols rely on. Accusations stay out of band (§III.H
// floods them signed); the simulator records them centrally and the
// fault plan does not touch them.
//
// Two protocol-level complements live in honest.go: a node that
// hears a neighbour announce an infinite distance while it has a
// route re-advertises its full state (the reboot-resync rule — a
// rebooted node announces D = ∞ first, and its neighbours' earlier
// announcements may have been delivered, acknowledged and then lost
// with the crashed node's memory), and the stage-1 accusation grace
// scales with the fault plan (CorrectionGrace) the same way it
// already scales with the maximum async delay.

import (
	"fmt"
	"math/rand/v2"

	"truthroute/internal/obs"
)

// frame kinds, for sequence spaces and the per-kind drop counters.
const (
	kindSPT = iota
	kindPrice
	kindCorrect
	kindCount
)

func kindOf(m *Message) int {
	switch {
	case m.SPT != nil:
		return kindSPT
	case m.Price != nil:
		return kindPrice
	default:
		return kindCorrect
	}
}

// GilbertElliott is the classic two-state burst-loss channel: the
// channel sits in a good or bad state, transitions between them with
// the given per-transmission probabilities, and drops a frame with
// the loss probability of its current state. PGoodBad small and
// PBadGood moderate gives the bursty loss pattern of a fading
// wireless link. Each directed channel evolves its own state.
type GilbertElliott struct {
	PGoodBad, PBadGood float64 // state transition probabilities
	LossGood, LossBad  float64 // drop probability in each state
}

// CrashEvent takes Node down at the start of round At and brings it
// back at the start of round Recover with its volatile protocol
// state wiped (the Behavior is re-initialized; a node that rebooted
// knows its own declared cost and neighbour set — public knowledge —
// but nothing it had learned from the protocol). Recover < 0 means
// the node never comes back; a network whose shortest-path structure
// needs such a node will honestly report non-convergence.
type CrashEvent struct {
	Node, At, Recover int
}

// PartitionEvent splits the network from round At (inclusive) to
// round Heal (exclusive): every transmission crossing the cut — one
// endpoint in Side, the other outside it — is lost, data frames and
// acknowledgements alike. The ARQ layer keeps retransmitting across
// the cut and repairs the exchange once the partition heals.
type PartitionEvent struct {
	At, Heal int
	Side     []int
}

// FaultPlan describes the faults to inject into one run. All
// randomness derives from Seed, so a plan replays bit-for-bit.
type FaultPlan struct {
	Seed uint64
	// Loss is the i.i.d. per-transmission drop probability, applied
	// to every protocol frame and to every MAC acknowledgement (on
	// the reverse channel).
	Loss float64
	// Burst, when set, replaces Loss with a Gilbert–Elliott channel.
	Burst *GilbertElliott
	// Dup is the probability that a successfully transmitted frame is
	// delivered twice (a spurious MAC retry); receivers deduplicate.
	Dup float64
	// Crashes is the node crash/recover schedule.
	Crashes []CrashEvent
	// Partitions is the network-split schedule; transmissions crossing
	// an active cut are lost until the partition heals.
	Partitions []PartitionEvent
	// Jitter > 0 adds a random extra delay in [0, Jitter] rounds to
	// every successfully transmitted frame (bounded-delay channels).
	Jitter int
	// Reorder lifts the per-channel FIFO clamp, so jittered frames may
	// overtake each other on the same channel. Sound under the ARQ
	// layer: the per-channel per-kind sequence space delivers frames
	// to the protocol in emission order regardless of arrival order
	// (late-arriving older frames are discarded as stale).
	Reorder bool
}

// lossy reports whether the plan can ever drop or duplicate a frame.
func (p *FaultPlan) lossy() bool {
	if p.Loss > 0 || p.Dup > 0 {
		return true
	}
	return p.Burst != nil && (p.Burst.LossGood > 0 || p.Burst.LossBad > 0)
}

// maxOutage is the longest crash-to-recover span in rounds; crashes
// that never recover contribute nothing (the grace period cannot save
// an accusation against a node that is gone for good — and such an
// accusation is arguably correct).
func (p *FaultPlan) maxOutage() int {
	out := 0
	for _, c := range p.Crashes {
		if c.Recover > c.At && c.Recover-c.At > out {
			out = c.Recover - c.At
		}
	}
	return out
}

// lastEventRound is the latest round at which the plan still changes
// the world; the network cannot be considered quiescent before it.
func (p *FaultPlan) lastEventRound() int {
	last := 0
	for _, c := range p.Crashes {
		if c.At > last {
			last = c.At
		}
		if c.Recover > last {
			last = c.Recover
		}
	}
	for _, pe := range p.Partitions {
		if pe.Heal > last {
			last = pe.Heal
		}
	}
	return last
}

// graceSlack is the extra stage-1 accusation grace the plan demands:
// a pending correction must survive the longest crash outage (plus
// the round trip around it — the correction epoch may already have
// been running when the neighbour went down) and enough
// retransmission attempts that the probability of an honest exchange
// failing for the whole window is negligible (the window admits
// ~lossGraceSlack/rtoCap independent attempts, each failing only if
// the frame or its ack drops).
func (p *FaultPlan) graceSlack() int {
	s := 0
	if o := p.maxOutage(); o > 0 {
		s += o + crashGraceSlack
	}
	if p.lossy() {
		s += lossGraceSlack
	}
	// A correction cannot cross an active cut: every partition's full
	// span (plus the repair round trip around it) must fit inside the
	// grace window. Spans are summed — partitions may overlap in time
	// with a correction epoch back to back.
	for _, pe := range p.Partitions {
		s += pe.Heal - pe.At + crashGraceSlack
	}
	// Jittered frames arrive up to Jitter rounds late in each
	// direction of the correction round trip.
	if p.Jitter > 0 {
		s += 2*p.Jitter + 4
	}
	return s
}

// crashGraceSlack covers the repair round trip around an outage on
// top of the outage itself.
const crashGraceSlack = 10

// lossGraceSlack is the loss component of the grace extension, in
// rounds. With the backoff cap below it buys a few dozen independent
// delivery attempts: at 20% loss each attempt fails (frame or ack
// dropped) with probability ≈ 0.36, so a full window of failures has
// probability well under 1e-15 per correction epoch.
const lossGraceSlack = 150

// validate panics on a malformed plan — fault injection is test
// infrastructure, and a silently clamped plan would fake coverage.
func (p *FaultPlan) validate(n, dest int) {
	bad := func(f string, args ...any) {
		panic("dist: invalid FaultPlan: " + fmt.Sprintf(f, args...))
	}
	if p.Loss < 0 || p.Loss >= 1 || p.Dup < 0 || p.Dup >= 1 {
		bad("Loss and Dup must be in [0, 1)")
	}
	if b := p.Burst; b != nil {
		for _, v := range []float64{b.PGoodBad, b.PBadGood} {
			if v < 0 || v > 1 {
				bad("Burst transition probabilities must be in [0, 1]")
			}
		}
		if b.LossGood < 0 || b.LossGood >= 1 || b.LossBad < 0 || b.LossBad > 1 {
			bad("Burst loss probabilities out of range")
		}
	}
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= n {
			bad("crash node %d out of range", c.Node)
		}
		if c.Node == dest {
			bad("cannot crash the access point (it anchors the SPT)")
		}
		if c.At < 1 {
			bad("crash round %d must be >= 1", c.At)
		}
		if c.Recover >= 0 && c.Recover <= c.At {
			bad("crash of node %d recovers at %d, not after %d", c.Node, c.Recover, c.At)
		}
	}
	for _, pe := range p.Partitions {
		if pe.At < 1 {
			bad("partition round %d must be >= 1", pe.At)
		}
		if pe.Heal <= pe.At {
			bad("partition heals at %d, not after %d", pe.Heal, pe.At)
		}
		if len(pe.Side) == 0 || len(pe.Side) >= n {
			bad("partition side must be a proper non-empty node subset")
		}
		for _, v := range pe.Side {
			if v < 0 || v >= n {
				bad("partition node %d out of range", v)
			}
		}
	}
	if p.Jitter < 0 {
		bad("Jitter must be >= 0")
	}
	if p.Reorder && p.Jitter == 0 {
		bad("Reorder without Jitter reorders nothing")
	}
}

// FaultStats counts what the injected faults and the ARQ layer did.
type FaultStats struct {
	// DroppedSPT/DroppedPrice/DroppedCorrect are data frames the
	// channel lost, by protocol kind.
	DroppedSPT, DroppedPrice, DroppedCorrect int
	// DroppedAcks counts lost MAC acknowledgements (the sender will
	// retransmit a frame the receiver already has; dedup absorbs it).
	DroppedAcks int
	// CrashDropped counts frames that arrived at a crashed radio.
	CrashDropped int
	// PartitionDropped counts data frames lost to an active cut.
	PartitionDropped int
	// DupInjected/DupDropped count duplicated deliveries and the
	// receiver-side discards (duplicates plus retransmitted frames
	// that had in fact arrived).
	DupInjected, DupDropped int
	// Retransmissions counts ARQ timeout retransmissions.
	Retransmissions int
}

func (s FaultStats) String() string {
	return fmt.Sprintf("dropped %d spt + %d price + %d correction frames, %d acks; %d crash-dropped; %d partition-cut; %d dups injected, %d duplicates discarded; %d retransmissions",
		s.DroppedSPT, s.DroppedPrice, s.DroppedCorrect, s.DroppedAcks,
		s.CrashDropped, s.PartitionDropped, s.DupInjected, s.DupDropped, s.Retransmissions)
}

// chKey identifies one sequence space: a directed physical channel
// and a frame kind.
type chKey struct {
	from, to, kind int
}

// txEntry is the sender-side ARQ slot for one chKey: the latest
// unacknowledged frame, with its retransmission clock.
type txEntry struct {
	msg      Message
	seq      uint64
	lastSent int // round of the most recent transmission
	rto      int // current timeout, in rounds
}

// faultState is the Network's transport-layer state, allocated by
// SetFaults.
type faultState struct {
	plan *FaultPlan
	rng  *rand.Rand
	// geBad tracks each directed channel's Gilbert–Elliott state.
	geBad map[[2]int]bool
	// crashed marks nodes currently down.
	crashed []bool
	// seq is the next sequence number per channel and kind; rxSeq the
	// highest delivered one. Sequence numbers are a simulator-global
	// monotone clock (they survive reboots, like TCP timestamps), so
	// a recovered node's fresh announcements are never mistaken for
	// stale ones.
	seq, rxSeq map[chKey]uint64
	// unacked holds the latest in-flight frame per channel and kind.
	unacked map[chKey]*txEntry
	// events is the crash schedule indexed by round.
	crashAt, recoverAt map[int][]int
	lastEventRound     int
	// stage2At schedules a node's delayed (re-)entry into stage 2
	// (round → nodes); stage2Hold is the latest such deadline per
	// node, so that a node deferred again before re-entry waits for
	// the newest hold instead of resuming early.
	stage2At   map[int][]int
	stage2Hold map[int]int
	// parts are the partition windows with their side membership
	// precomputed as a bitmap.
	parts []partWindow
}

// partWindow is one PartitionEvent with its side precomputed.
type partWindow struct {
	at, heal int
	side     []bool
}

// cut reports whether a transmission between a and b at the given
// round crosses an active partition. Pure membership tests — no RNG
// is consumed, so a plan without partitions replays bit-identically
// to one predating the feature.
func (f *faultState) cut(a, b, round int) bool {
	for _, p := range f.parts {
		if round >= p.at && round < p.heal && p.side[a] != p.side[b] {
			return true
		}
	}
	return false
}

// SetFaults installs a fault plan. Must be called before the first
// round, like SetAsync (the ARQ bookkeeping cannot retrofit messages
// that already went out). The stage-1 accusation grace scales with
// the plan (see CorrectionGrace) so that loss and crash outages are
// not mistaken for refused corrections.
func (n *Network) SetFaults(p *FaultPlan) {
	if p == nil {
		panic("dist: SetFaults(nil)")
	}
	if n.Rounds > 0 || len(n.pending) > 0 {
		panic("dist: SetFaults must be called before the first round")
	}
	p.validate(n.G.N(), n.Dest)
	f := &faultState{
		plan:           p,
		rng:            rand.New(rand.NewPCG(p.Seed, 0xfa71)),
		geBad:          map[[2]int]bool{},
		crashed:        make([]bool, n.G.N()),
		seq:            map[chKey]uint64{},
		rxSeq:          map[chKey]uint64{},
		unacked:        map[chKey]*txEntry{},
		crashAt:        map[int][]int{},
		recoverAt:      map[int][]int{},
		stage2At:       map[int][]int{},
		stage2Hold:     map[int]int{},
		lastEventRound: p.lastEventRound(),
	}
	for _, c := range p.Crashes {
		f.crashAt[c.At] = append(f.crashAt[c.At], c.Node)
		if c.Recover > c.At {
			f.recoverAt[c.Recover] = append(f.recoverAt[c.Recover], c.Node)
		}
	}
	for _, pe := range p.Partitions {
		side := make([]bool, n.G.N())
		for _, v := range pe.Side {
			side[v] = true
		}
		f.parts = append(f.parts, partWindow{at: pe.At, heal: pe.Heal, side: side})
	}
	n.faults = f
}

// FaultsEnabled reports whether a fault plan is installed.
func (n *Network) FaultsEnabled() bool { return n.faults != nil }

// dropFrame draws the channel's verdict for one transmission on the
// directed channel from→to, advancing the Gilbert–Elliott state when
// the plan is bursty.
func (f *faultState) dropFrame(from, to int) bool {
	p := f.plan
	if b := p.Burst; b != nil {
		ch := [2]int{from, to}
		bad := f.geBad[ch]
		if bad {
			if f.rng.Float64() < b.PBadGood {
				bad = false
			}
		} else if f.rng.Float64() < b.PGoodBad {
			bad = true
		}
		f.geBad[ch] = bad
		loss := b.LossGood
		if bad {
			loss = b.LossBad
		}
		return f.rng.Float64() < loss
	}
	return p.Loss > 0 && f.rng.Float64() < p.Loss
}

// rto0 and rtoCap bound the retransmission clock: the initial
// timeout gives a frame and its ack time to cross even at the
// maximum async delay plus the plan's jitter; the cap keeps repair
// attempts frequent enough that the CorrectionGrace window admits
// many of them.
func (n *Network) rto0() int {
	j := 0
	if n.faults != nil {
		j = n.faults.plan.Jitter
	}
	return n.maxDelay + j + 2
}
func (n *Network) rtoCap() int { return 4 * n.rto0() }

// resyncDelay is how long a node recovering mid-stage-2 keeps to
// stage-1 repair before re-entering stage 2. Its route right after
// reboot is provisional (it adopts the first announcement that
// arrives, and better ones may be in flight or being retransmitted);
// verifying price triggers against a transiently-too-long route
// would make honest neighbours' announcements look understated. The
// window outlasts the ARQ backoff cap, and neighbours with better
// routes hammer it with per-round corrections throughout, so the
// route is final when verification resumes except with negligible
// probability.
func (n *Network) resyncDelay() int { return n.rtoCap() + n.maxDelay + 8 }

// applyFaultEvents executes the crash schedule for the current round.
// A crashing node loses its ARQ buffers (rebooting wipes them; its
// pre-crash state is obsolete anyway). A recovering node is
// re-initialized; if the protocol has moved on to stage 2 it first
// spends resyncDelay rounds re-learning its neighbourhood through
// stage-1 repair (collecting the price announcements its neighbours
// re-send under the reboot-resync rule) and then re-enters stage 2.
func (n *Network) applyFaultEvents() {
	f := n.faults
	if f == nil {
		return
	}
	for _, v := range f.crashAt[n.Rounds] {
		f.crashed[v] = true
		for k := range f.unacked {
			if k.from == v {
				delete(f.unacked, k)
			}
		}
	}
	for _, v := range f.recoverAt[n.Rounds] {
		f.crashed[v] = false
		n.Nodes[v].Init(v, n)
		if n.stage2Started {
			n.deferStage2(v)
		}
	}
	for _, v := range f.stage2At[n.Rounds] {
		// Fire only the newest deferral for a node that is up; a node
		// that crashed again, or was deferred again (its distance was
		// raised once more), is resumed by a later event instead.
		if !f.crashed[v] && f.stage2Hold[v] == n.Rounds {
			delete(f.stage2Hold, v)
			n.Nodes[v].StartStage2()
		}
	}
	delete(f.stage2At, n.Rounds)
}

// deferStage2 schedules node v's (re-)entry into stage 2 after the
// resync hold. Honest nodes call it when their distance is corrected
// *upward* mid-stage-2 (the upstream route is being repaired after a
// reboot): relaxing or verifying prices against a transiently long
// route would understate entries or accuse honest neighbours, so the
// node sits stage 2 out until its route has had time to settle. A
// no-op without a fault plan — on reliable channels distances never
// regress mid-stage-2.
func (n *Network) deferStage2(v int) {
	f := n.faults
	if f == nil {
		return
	}
	at := n.Rounds + n.resyncDelay()
	f.stage2Hold[v] = at
	f.stage2At[at] = append(f.stage2At[at], v)
}

// pumpRetransmissions rescheds every ARQ slot whose timeout expired,
// doubling the timeout up to the cap. Iteration is in sorted key
// order so the shared fault RNG stream — and therefore the whole run
// — stays deterministic.
func (n *Network) pumpRetransmissions() {
	f := n.faults
	if f == nil || len(f.unacked) == 0 {
		return
	}
	keys := make([]chKey, 0, len(f.unacked))
	for k := range f.unacked {
		keys = append(keys, k)
	}
	sortChKeys(keys)
	for _, k := range keys {
		e := f.unacked[k]
		if f.crashed[k.from] || n.Rounds-e.lastSent < e.rto {
			continue
		}
		e.rto = min(2*e.rto, n.rtoCap())
		n.FaultStats.Retransmissions++
		obsRetransmissions.Inc()
		obs.Emit("dist.retransmit", int64(k.from), int64(k.to), int64(k.kind))
		n.sendFrame(k, e)
	}
}

func sortChKeys(keys []chKey) {
	// Insertion sort: the slot count is small (≤ 3 kinds per live
	// channel) and this avoids pulling in package sort's interface
	// machinery on the per-round hot path.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && chKeyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func chKeyLess(a, b chKey) bool {
	if a.from != b.from {
		return a.from < b.from
	}
	if a.to != b.to {
		return a.to < b.to
	}
	return a.kind < b.kind
}

// sendFrame performs one radio transmission of an ARQ slot: it burns
// a message (transmissions cost energy whether or not they arrive),
// draws the channel verdict, and on success schedules the frame —
// plus, possibly, a spurious duplicate.
func (n *Network) sendFrame(k chKey, e *txEntry) {
	f := n.faults
	e.lastSent = n.Rounds
	n.Messages++
	obsSentByKind(k.kind)
	if f.cut(k.from, k.to, n.Rounds) {
		// An active partition swallows the transmission before the
		// loss model gets a say (and without consuming its RNG).
		n.FaultStats.PartitionDropped++
		obsPartitionDropped.Inc()
		obsDroppedByKind(k.kind)
		return
	}
	if f.dropFrame(k.from, k.to) {
		switch k.kind {
		case kindSPT:
			n.FaultStats.DroppedSPT++
		case kindPrice:
			n.FaultStats.DroppedPrice++
		default:
			n.FaultStats.DroppedCorrect++
		}
		obsDroppedByKind(k.kind)
		return
	}
	n.schedule(k.from, frame{msg: e.msg, phys: k.from, seq: e.seq, kind: k.kind, arq: true})
	if f.plan.Dup > 0 && f.rng.Float64() < f.plan.Dup {
		n.FaultStats.DupInjected++
		obsDupInjected.Inc()
		n.Messages++
		obsSentByKind(k.kind)
		n.schedule(k.from, frame{msg: e.msg, phys: k.from, seq: e.seq, kind: k.kind, arq: true})
	}
}

// receive filters one arriving frame: crashed radios hear nothing,
// duplicates and stale frames are discarded (but still acknowledged
// — the sender is missing an ack, not the data), and fresh frames
// pass the admission filter (eviction + replay window, eviction.go)
// before reaching the protocol.
func (n *Network) receive(to int, fr frame) (Message, bool) {
	f := n.faults
	if f == nil {
		return n.admit(to, fr.msg)
	}
	if f.crashed[to] {
		n.FaultStats.CrashDropped++
		obsCrashDropped.Inc()
		return Message{}, false
	}
	if f.cut(fr.phys, to, n.Rounds) {
		// The frame was in flight when the partition opened; it still
		// has to cross the cut link now, and cannot. ARQ retransmits
		// it once the partition heals.
		n.FaultStats.PartitionDropped++
		obsPartitionDropped.Inc()
		return Message{}, false
	}
	if !fr.arq {
		return n.admit(to, fr.msg)
	}
	k := chKey{from: fr.phys, to: to, kind: fr.kind}
	fresh := fr.seq > f.rxSeq[k]
	if fresh {
		f.rxSeq[k] = fr.seq
	} else {
		n.FaultStats.DupDropped++
		obsDupDropped.Inc()
	}
	// The MAC acknowledgement crosses within the round (an 802.11
	// ACK returns within SIFS, far below protocol-round granularity)
	// unless the reverse channel drops it or the sender is down.
	if !f.crashed[fr.phys] {
		if f.cut(to, fr.phys, n.Rounds) {
			// The reverse channel is cut too: the ack cannot cross.
			n.FaultStats.DroppedAcks++
			obsDroppedAcks.Inc()
		} else if f.dropFrame(to, fr.phys) {
			n.FaultStats.DroppedAcks++
			obsDroppedAcks.Inc()
		} else if e := f.unacked[k]; e != nil && e.seq <= fr.seq {
			delete(f.unacked, k)
		}
	}
	if !fresh {
		return Message{}, false
	}
	return n.admit(to, fr.msg)
}

// transmitARQ enters one point-to-point frame into the ARQ layer:
// it takes (or supersedes) the channel's slot for its kind and sends
// it. Supersession is sound because every frame kind carries the
// sender's full current state for that kind.
func (n *Network) transmitARQ(sender int, m Message) {
	f := n.faults
	k := chKey{from: sender, to: m.To, kind: kindOf(&m)}
	f.seq[k]++
	e := &txEntry{msg: m, seq: f.seq[k], rto: n.rto0()}
	f.unacked[k] = e
	n.sendFrame(k, e)
}

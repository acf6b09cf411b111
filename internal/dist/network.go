// Package dist implements the paper's distributed payment
// computation (§III.C) and its manipulation-resistant refinement,
// Algorithm 2 (§III.D), on a synchronous round-based message-passing
// simulator.
//
// Stage 1 builds the shortest path tree towards the access point
// v_0 in a Bellman-Ford fashion; every node maintains D(v) — its
// distance to v_0 — and FH(v), its first-hop (parent). Algorithm 2
// hardens the stage with *mutual correction*: a node that can offer
// a neighbour a better route, or that observes its child advertising
// an inconsistent distance, contacts the neighbour directly over the
// reliable channel; refusing the correction is detectable cheating
// (this is what defeats the Figure-2 "hide an edge" attack).
//
// Stage 2 relaxes the price entries p_i^k — what node v_i must pay
// relay v_k on P(v_i, v_0) — using the Feigenbaum-style update the
// paper states as three rules, all instances of one relaxation over
// a neighbour j ≠ k:
//
//	p_i^k = min(p_i^k, (k ∈ P(j,0) ? p_j^k : c_k) + c_j + c(j,0) − c(i,0))
//
// In the §III.F link model (linknet.go) the same protocol runs over
// arc weights: c_j becomes w(i,j) and the off-path c_k becomes
// w(k, next_k), k's declared weight towards its successor.
//
// Prices decrease monotonically and converge to the centralized VCG
// payments within at most n rounds. Algorithm 2's second stage makes
// every broadcast carry the *trigger* neighbour that produced the
// value; the trigger recomputes the entry from its own state and
// publicly accuses the sender on a mismatch, so understating one's
// payment is caught.
//
// All nodes — honest or adversarial — implement the Behavior
// interface; adversaries (adversary.go) deviate in exactly the ways
// §III.D worries about.
package dist

import (
	"crypto/hmac"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"truthroute/internal/auth"
	"truthroute/internal/graph"
	"truthroute/internal/obs"
)

// Inf marks "no route yet".
var Inf = math.Inf(1)

// Message is what travels between neighbours. Exactly one payload
// field is set. From is the *claimed* sender: the radio medium lets
// a transmitter put any identity there, which is why §III.D requires
// signatures (Sig, attached by the network from the actual
// transmitter's key when signing is enabled).
type Message struct {
	From, To int // To == Broadcast means all neighbours
	SPT      *SPTAnnounce
	Price    *PriceAnnounce
	Correct  *Correction
	Accuse   *Accusation
	Evict    *EvictionNotice
	Sig      []byte
}

// Broadcast is the To value for radio broadcasts (an omnidirectional
// antenna reaches every neighbour at once, §II.B).
const Broadcast = -1

// SPTAnnounce is a stage-1 state advertisement: the sender's current
// distance to the access point, its first hop, and its full path
// (needed by stage 2 to know which relays a neighbour pays).
//
// Field order is the canonical wire order (wire.go encodes fields in
// declaration order; truthlint's wireorder analyzer enforces it).
type SPTAnnounce struct {
	D    float64
	FH   int
	Cost float64
	// Gen is the sender's state generation: bumped on every route
	// change and on reboot (a persistent boot counter, like the ARQ
	// sequence space). Receivers use it to pair price announcements
	// with the SPT state they were computed under — under faults a
	// price announcement is only meaningful against the matching
	// generation, and the link layer's replay window (eviction.go)
	// rejects frames whose generation regressed below the channel's
	// high-water mark.
	Gen  int
	Path []int // sender → ... → 0; nil until a route is known
}

// Clone returns a deep copy. Adversaries that perturb an announcement
// must clone it first: the honest core retains references to the maps
// and the path slice it announced, so mutating the original in place
// would corrupt the adversary's own replica state (and, in-process,
// the copies other nodes hold).
func (a *SPTAnnounce) Clone() *SPTAnnounce {
	if a == nil {
		return nil
	}
	out := *a
	out.Path = slices.Clone(a.Path)
	return &out
}

// PriceAnnounce is a stage-2 advertisement of the sender's current
// price entries with the trigger neighbour of each (Algorithm 2
// second stage, step 1: "it should also broadcast which node
// triggered this change").
// Field order is the canonical wire order (wire.go encodes fields in
// declaration order; truthlint's wireorder analyzer enforces it).
type PriceAnnounce struct {
	// Gen is the sender's state generation at computation time (see
	// SPTAnnounce.Gen): these entries are relative to that route.
	Gen      int
	Prices   map[int]float64 // relay k → p_sender^k
	Triggers map[int]int     // relay k → neighbour that produced it
}

// Clone returns a deep copy of the announcement. Every adversary that
// perturbs a price announcement must clone before mutating: the maps
// are shared with the honest core's own state (announcePrices copies
// entry values, but adversaries historically rebuilt the maps by hand
// and were one forgotten loop away from aliasing the originals).
func (pa *PriceAnnounce) Clone() *PriceAnnounce {
	if pa == nil {
		return nil
	}
	out := &PriceAnnounce{
		Gen:      pa.Gen,
		Prices:   make(map[int]float64, len(pa.Prices)),
		Triggers: make(map[int]int, len(pa.Triggers)),
	}
	for k, p := range pa.Prices {
		out.Prices[k] = p
	}
	for k, tr := range pa.Triggers {
		out.Triggers[k] = tr
	}
	return out
}

// Correction is Algorithm 2 stage 1's direct "reliable and secure
// connection" message: the sender instructs the receiver to adopt
// distance D with first hop the sender, whose own route to the
// access point is Path (so the receiver's full path stays known).
type Correction struct {
	D    float64
	Path []int
}

// Accusation is a public cheating report: Accuser observed Offender
// violating the protocol. Kind describes the violation.
type Accusation struct {
	Offender int
	Kind     string
}

func (a Accusation) String() string {
	return fmt.Sprintf("node %d accused: %s", a.Offender, a.Kind)
}

// EvictionNotice is the gossip record of a quorum eviction: Offender
// was removed from the protocol on the strength of accusations by
// Accusers (sorted ascending, simulator-raised verdicts omitted). It
// has a wire encoding (tag 'e') so the eviction gossip §III.H implies
// can be fuzzed and replayed; in-process the simulator applies
// evictions centrally at epoch boundaries (eviction.go), so a
// Behavior that emits one on the data channel is attempting to evict
// by fiat — a protocol violation, intercepted at delivery.
type EvictionNotice struct {
	Offender int
	Accusers []int
}

func (e EvictionNotice) String() string {
	return fmt.Sprintf("node %d evicted by quorum of %d", e.Offender, len(e.Accusers))
}

// Behavior is a node's protocol implementation. HonestNode follows
// Algorithm 2; adversary.go provides deviants. Step is called once
// per round with the messages delivered this round; returned
// messages are delivered next round.
type Behavior interface {
	// Init hands the node its identity, declared cost, neighbour
	// set and (for neighbours') declared costs, as the paper's model
	// makes all declarations public before routing.
	Init(self int, net *Network)
	// Step processes one synchronous round.
	Step(round int, inbox []Message) []Message
	// StartStage2 switches the node from SPT construction to price
	// computation.
	StartStage2()
	// Refresh drops back to stage 1 and forces a re-announcement —
	// how the network reacts to a changed declaration (ReDeclare).
	Refresh()
	// Evict informs the node that offender was removed by quorum
	// (eviction.go): it must purge offender from its topology view and
	// drop any learned state that routed through it.
	Evict(offender int)
	// State exposes the node's current routing state for inspection.
	State() *NodeState
}

// NodeState is the protocol-visible state of one node.
type NodeState struct {
	D    float64 // distance to the access point, c(i,0)
	FH   int     // first hop towards 0; -1 if none
	Path []int   // current LCP to 0 (self first), nil if unknown
	// Prices are the converged (or in-progress) entries p_i^k.
	Prices map[int]float64
	// Accusations this node has raised.
	Accusations []Accusation
}

// frame is one radio transmission in flight: the protocol message
// plus the link-layer metadata the fault/ARQ machinery needs. phys is
// the physical transmitter (which may differ from msg.From under
// impersonation); seq/kind identify the ARQ slot for frames enrolled
// in the reliable-delivery layer (arq == true, i.e. a fault plan is
// installed).
type frame struct {
	msg  Message
	phys int
	seq  uint64
	kind int
	arq  bool
}

// Network wires Behaviors over an undirected topology and runs
// synchronous rounds. The relaxation runs over the §III.C arc weights
// w(i,j): c_j in the node model, the declared weight of arc i→j in
// the §III.F link model (NewLinkNetwork), where G carries only the
// radio adjacency. By default every message takes one round;
// SetAsync introduces bounded random per-message delays over FIFO
// channels, and SetFaults layers deterministic loss, duplication and
// crash injection (faults.go) under an ARQ repair layer.
type Network struct {
	G     *graph.NodeGraph
	Dest  int // the access point (v_0)
	Nodes []Behavior

	// link holds the declared arc weights in the link model; nil in
	// the node model.
	link *graph.LinkGraph

	// pending[r] holds frames to deliver at round r (per target).
	pending map[int]map[int][]frame
	// Log collects every accusation raised by any node.
	Log []Accusation
	// Rounds counts executed rounds.
	Rounds int

	// Async message delays: maxDelay ≥ 1; rng drives the delay draw;
	// lastDelivery keeps each directed channel FIFO (the standard
	// reliable-channel assumption the protocol's verification needs).
	maxDelay     int
	delayRng     *rand.Rand
	lastDelivery map[[2]int]int
	// correctionGrace is how many unanswered stage-1 correction
	// resends honest nodes tolerate before accusing; it scales with
	// the maximum delay.
	correctionGrace int

	// keyring enables §III.D message authentication (signing.go);
	// DroppedForged counts messages whose signature failed against
	// the claimed sender's key.
	keyring       auth.Keyring
	DroppedForged int

	// trace, when set, receives one line per round summarizing the
	// traffic (SetTrace).
	trace io.Writer

	// Messages counts every point-to-point transmission (a broadcast
	// to k neighbours counts k; under a fault plan, dropped frames
	// and retransmissions count too — transmitting costs energy
	// whether or not the frame arrives) — the
	// communication-complexity figure the distributed-mechanism
	// literature reports alongside round counts.
	Messages int

	// faults is the installed fault plan's runtime state (nil without
	// SetFaults); FaultStats tallies what it did.
	faults     *faultState
	FaultStats FaultStats

	// Violations counts protocol violations the simulator itself
	// detected and neutralized (e.g. a send to a non-neighbour);
	// each is also recorded in Log as an accusation by the network.
	Violations int

	// stage2Started tracks which protocol stage RunProtocol is in, so
	// a node recovering from a crash can be dropped back into the
	// right stage.
	stage2Started bool

	// verifyPending counts verification violations observed this round
	// that are still inside their persistence window (see honest.go:
	// under faults an understated-looking entry must survive the grace
	// period before it becomes an accusation). A pending verdict keeps
	// the network active even when no messages flow, so the round loop
	// cannot quiesce out from under an unresolved violation.
	verifyPending int

	// Eviction machinery (eviction.go). quorum is the number of
	// distinct live accusers needed to evict (0 = eviction disabled,
	// the default — legacy runs are bit-identical); evicted marks
	// removed nodes; accusers aggregates the ledger per offender;
	// nbView caches the eviction-filtered neighbour view.
	quorum    int
	evicted   []bool
	accusers  map[int]map[int]bool
	nbView    map[int][]int
	evictedAt map[int]int
	// priceSuspect records that a price-cheat accusation (understated
	// or overstated entry) has been flooded and not yet resolved by an
	// epoch-boundary quorum audit; while it stands, stage-2 price
	// audits are suspended network-wide (priceAuditsSuspended).
	priceSuspect bool
	// EvictionLog records every eviction in order.
	EvictionLog []EvictionNotice
	// DroppedEvicted counts frames suppressed because an endpoint was
	// evicted (in-flight stragglers and broadcast legs).
	DroppedEvicted int

	// Replay hardening (eviction.go). replay is the per-channel
	// generation high-water window, active whenever eviction is armed
	// or a fault plan is installed; DroppedStale counts frames it
	// rejected.
	replay       *replayWindow
	DroppedStale int
	staleSeen    map[[2]int]int
	staleAccused map[[2]int]bool
	// forgedSeen tracks per (transmitter, receiver) channel how many
	// signature failures accumulated; a streak beyond the grace window
	// becomes an accusation when eviction is armed (a forged frame is
	// physical-layer evidence, so the simulator raises it on the
	// receiver's behalf).
	forgedSeen    map[[2]int]int
	forgedAccused map[[2]int]bool
}

// NewNetwork builds a network over g towards dest. behaviors may be
// nil entries, which default to honest nodes.
func NewNetwork(g *graph.NodeGraph, dest int, behaviors []Behavior) *Network {
	n := &Network{
		G: g, Dest: dest, Nodes: make([]Behavior, g.N()),
		pending:         map[int]map[int][]frame{},
		maxDelay:        1,
		lastDelivery:    map[[2]int]int{},
		correctionGrace: 4,
	}
	for i := 0; i < g.N(); i++ {
		if behaviors != nil && behaviors[i] != nil {
			n.Nodes[i] = behaviors[i]
		} else {
			n.Nodes[i] = &HonestNode{}
		}
		n.Nodes[i].Init(i, n)
	}
	return n
}

// SetAsync switches message delivery to random per-message delays in
// [1, maxDelay] rounds, drawn deterministically from seed. Channels
// stay FIFO per directed (sender, receiver) pair — the reliable
// in-order channel the paper's verification arguments assume. Call
// before the first round. The stage-1 correction grace scales
// accordingly.
func (n *Network) SetAsync(maxDelay int, seed uint64) {
	if maxDelay < 1 {
		panic("dist: maxDelay must be >= 1")
	}
	if n.Rounds > 0 || len(n.pending) > 0 {
		panic("dist: SetAsync must be called before the first round (messages already scheduled under the old delay model)")
	}
	n.maxDelay = maxDelay
	n.delayRng = rand.New(rand.NewPCG(seed, 0xa5a5))
	n.correctionGrace = 2*maxDelay + 4
}

// CorrectionGrace is how many unanswered correction resends honest
// nodes tolerate before accusing (see honest.go). The base scales
// with the maximum async delay; an installed fault plan adds slack
// for the longest crash outage and for retransmission repair under
// loss, so that faults are never mistaken for refused corrections.
// Computed on demand so SetAsync and SetFaults compose in either
// order.
func (n *Network) CorrectionGrace() int {
	g := n.correctionGrace
	if n.faults != nil {
		g += n.faults.plan.graceSlack()
	}
	return g
}

// priceAuditGrace is the verification grace for stage-2 price audits
// (understatement and overstatement streaks). Unlike a stage-1
// correction — a direct exchange between two neighbours — a price
// entry derives transitively: a perturbation (a cheater's deflated
// announcement, or the rise when an auditor quarantines one) heals one
// relaxation hop per delivery round trip, so an honest entry can trail
// its clean value for a horizon that scales with the longest
// derivation chain, bounded by the node count. Grading the audit on
// the per-link grace alone would convict honest nodes mid-heal.
func (n *Network) priceAuditGrace() int {
	return n.CorrectionGrace() + 2*n.G.N()
}

// accusationsLive reports whether any accusation has been flooded.
// §III.H floods accusations to every node, so "someone stands accused"
// is global knowledge — and it means the price economy may be
// mid-repair: auditors quarantine the accused (candidateVia), entries
// derived from its announcements rise back toward their clean values,
// and stale lower copies propagate outward for a few delivery round
// trips. Audits run during that window must grade on the transitive
// grace rather than fire immediately.
func (n *Network) accusationsLive() bool { return len(n.Log) > 0 }

// priceAuditsSuspended reports whether stage-2 price audits are on
// hold network-wide. The hold starts when a price-cheat accusation is
// flooded (§III.H makes that global knowledge) and lifts when the
// epoch-boundary quorum audit rules on the ledger (eviction.go). The
// rationale: a live price cheat continuously re-poisons derivation
// chains through every node that has not caught it first-hand, so
// honest entries echoing its data can never heal while it remains —
// no finite grace distinguishes them from cheats. Auditing through
// that poison frames honest relays one after another until a web of
// mutual suspicion annuls the only testimony that matters; the first
// flooded accusation already meets the quorum, and any further cheats
// are re-detected on the next epoch's clean re-solve. In runs without
// eviction the hold simply freezes the ledger at first detection —
// exactly the legacy single-accusation outcome.
func (n *Network) priceAuditsSuspended() bool { return n.priceSuspect }

// priceCheatKind reports whether an accusation kind names a stage-2
// price-plane cheat (the kinds whose poison propagates transitively).
func priceCheatKind(kind string) bool {
	return kind == "understated price entry" || kind == "overstated price entry"
}

// SetTrace emits one summary line per executed round to w: how many
// announcements, price updates, corrections and accusations were
// delivered. Useful with disttrace -roundlog.
func (n *Network) SetTrace(w io.Writer) { n.trace = w }

// ReDeclare changes node v's declared cost mid-run and drops every
// node back to stage 1. Distance *increases* propagate through
// Algorithm 2's case-2 corrections (a first hop is authoritative for
// its children), decreases through ordinary relaxation; rerun
// RunProtocol afterwards to reconverge both stages. Stage-2 prices
// are reset because the relaxation is monotone and cannot track a
// cost increase in place.
func (n *Network) ReDeclare(v int, cost float64) {
	n.G.SetCost(v, cost)
	for _, b := range n.Nodes {
		b.Refresh()
	}
}

// Cost returns node v's declared cost (public knowledge once
// declared).
func (n *Network) Cost(v int) float64 { return n.G.Cost(v) }

// w is the §III.C weight of arc i→j: c_j in the node model (the
// access point relays nothing), the declared weight of arc i→j in the
// link model.
func (n *Network) w(i, j int) float64 {
	if n.link != nil {
		return n.link.Weight(i, j)
	}
	if j == n.Dest {
		return 0
	}
	return n.G.Cost(j)
}

// relayCost is relay k's declared cost on path, the first term of its
// payment: c_k in the node model, w(k, next_k) in the link model
// (+Inf when k is not an interior node of path).
func (n *Network) relayCost(k int, path []int) float64 {
	if n.link == nil {
		return n.G.Cost(k)
	}
	i := slices.Index(path, k)
	if i <= 0 || i+1 >= len(path) {
		return Inf
	}
	return n.link.Weight(k, path[i+1])
}

// Neighbors returns v's neighbour set as the protocol sees it: once
// eviction is armed, evicted nodes vanish from every view (the
// radio-layer adjacency in G is untouched — an evicted node still
// physically occupies its spot; deliver keeps using G directly). The
// filtered view is cached and invalidated on each eviction.
func (n *Network) Neighbors(v int) []int {
	if n.evicted == nil {
		return n.G.Neighbors(v)
	}
	if cached, ok := n.nbView[v]; ok {
		return cached
	}
	phys := n.G.Neighbors(v)
	out := make([]int, 0, len(phys))
	for _, u := range phys {
		if !n.evicted[u] {
			out = append(out, u)
		}
	}
	n.nbView[v] = out
	return out
}

// schedule enqueues one point-to-point frame, preserving per-channel
// FIFO order under async delays. FIFO is keyed by the *physical*
// transmitter: the radio channel orders what a given radio sends,
// not what identity the payload claims.
func (n *Network) schedule(sender int, fr frame) {
	delay := 1
	if n.maxDelay > 1 {
		delay = 1 + n.delayRng.IntN(n.maxDelay)
	}
	if f := n.faults; f != nil && f.plan.Jitter > 0 {
		delay += f.rng.IntN(f.plan.Jitter + 1)
	}
	at := n.Rounds + delay
	ch := [2]int{sender, fr.msg.To}
	if last := n.lastDelivery[ch]; at < last &&
		(n.faults == nil || !n.faults.plan.Reorder) {
		at = last // never overtake an earlier frame on this channel
	}
	if at > n.lastDelivery[ch] {
		n.lastDelivery[ch] = at
	}
	byTarget := n.pending[at]
	if byTarget == nil {
		byTarget = map[int][]frame{}
		n.pending[at] = byTarget
	}
	byTarget[fr.msg.To] = append(byTarget[fr.msg.To], fr)
}

// transmit puts one verified point-to-point message on the air:
// directly when channels are reliable, through the ARQ layer when a
// fault plan is installed.
func (n *Network) transmit(sender int, m Message) {
	if n.faults != nil {
		n.transmitARQ(sender, m)
		return
	}
	n.Messages++
	obsSentByKind(kindOf(&m))
	n.schedule(sender, frame{msg: m, phys: sender})
}

// deliver routes msgs into future rounds, expanding broadcasts.
// sender is the *physical* transmitter: broadcast reach and adjacency
// are governed by where the radio actually is, regardless of the
// claimed From field; with signing enabled the message is stamped
// with sender's key and verified at receipt against the claimed
// identity.
func (n *Network) deliver(sender int, msgs []Message) {
	for _, m := range msgs {
		if m.Accuse != nil {
			// Accusations are flooded out of band (signed, §III.H);
			// the simulator records them centrally, attributed to the
			// physical transmitter for quorum aggregation.
			n.recordAccusation(sender, *m.Accuse)
			continue
		}
		if m.Evict != nil {
			// Eviction verdicts are issued by quorum at epoch
			// boundaries (eviction.go), never by individual nodes; a
			// Behavior emitting one on the data channel is trying to
			// evict by fiat.
			n.Violations++
			obsViolations.Inc()
			n.recordAccusation(simAccuser, Accusation{
				Offender: sender,
				Kind:     "protocol violation: forged eviction notice",
			})
			continue
		}
		if n.keyring != nil && m.Sig == nil {
			// Stamp with the *transmitter's* key. A pre-attached
			// signature is kept as-is: the radio sends the bytes the
			// node hands it, which is exactly how a Tamperer gets a
			// frame whose signature no longer matches its payload on
			// the air.
			m.Sig = signMessage(n.keyring[sender], &m)
		}
		if m.To == Broadcast {
			for _, v := range n.G.Neighbors(sender) {
				if n.evicted != nil && n.evicted[v] {
					n.DroppedEvicted++
					obsDroppedEvicted.Inc()
					continue
				}
				mm := m
				mm.To = v
				if n.verified(mm) {
					n.transmit(sender, mm)
				} else {
					n.noteForged(sender, v)
				}
			}
			continue
		}
		if n.evicted != nil && m.To >= 0 && m.To < n.G.N() && n.evicted[m.To] {
			// A correction or retarget already addressed to a node
			// evicted this epoch: suppress it instead of flagging a
			// violation — the sender may legitimately not have
			// processed the eviction yet.
			n.DroppedEvicted++
			obsDroppedEvicted.Inc()
			continue
		}
		if m.To < 0 || m.To >= n.G.N() || !n.G.HasEdge(sender, m.To) {
			// A radio cannot reach a non-neighbour: record the
			// violation and drop the message instead of crashing the
			// simulation — a buggy or malicious Behavior must not be
			// able to take down the harness.
			n.Violations++
			obsViolations.Inc()
			n.recordAccusation(simAccuser, Accusation{
				Offender: sender,
				Kind:     fmt.Sprintf("protocol violation: sent to non-neighbour %d", m.To),
			})
			continue
		}
		if n.verified(m) {
			n.transmit(sender, m)
		} else {
			n.noteForged(sender, m.To)
		}
	}
}

// verified checks the signature (when signing is on) against the
// *claimed* sender's key; it matches exactly when the physical
// transmitter owns that key. Forged messages are dropped and
// counted. The signature covers the sender identity and payload but
// not To — one radio broadcast carries one signature for all
// receivers.
func (n *Network) verified(m Message) bool {
	if n.keyring == nil {
		return true
	}
	want := signMessage(n.keyring[m.From], &m)
	if hmac.Equal(want, m.Sig) {
		return true
	}
	n.DroppedForged++
	obsDroppedForged.Inc()
	return false
}

// RunRound executes one synchronous round and reports whether any
// message was exchanged or is still in flight (false means the
// protocol has gone quiet). Under a fault plan the round opens with
// the crash schedule and the ARQ retransmission pump, and every
// arriving frame passes the link-layer filter (crash drop, dedup,
// MAC acknowledgement) before reaching its Behavior.
func (n *Network) RunRound() bool {
	var began time.Time
	if obs.On() {
		//lint:allow determinism wall clock feeds only the obs round-latency histogram, never protocol state
		began = time.Now()
	}
	n.Rounds++
	obsRounds.Inc()
	n.applyFaultEvents()
	n.pumpRetransmissions()
	byTarget := n.pending[n.Rounds]
	delete(n.pending, n.Rounds)
	// Filter arrivals in node order: the link layer draws from the
	// shared fault RNG (ack loss), so iteration order must be
	// deterministic for runs to replay bit-for-bit.
	delivered := 0
	inboxes := make([][]Message, len(n.Nodes))
	for i := range n.Nodes {
		for _, fr := range byTarget[i] {
			if m, ok := n.receive(i, fr); ok {
				inboxes[i] = append(inboxes[i], m)
				delivered++
			}
		}
	}
	obsDelivered.Observe(float64(delivered))
	obs.Emit("dist.round", int64(n.Rounds), int64(delivered), int64(len(n.pending)))
	if n.trace != nil {
		var spt, price, corr int
		for _, q := range inboxes {
			for _, m := range q {
				switch {
				case m.SPT != nil:
					spt++
				case m.Price != nil:
					price++
				case m.Correct != nil:
					corr++
				}
			}
		}
		fmt.Fprintf(n.trace, "round %4d: %4d spt, %4d price, %3d corrections delivered\n",
			n.Rounds, spt, price, corr)
	}
	active := false
	n.verifyPending = 0
	for i, node := range n.Nodes {
		if n.faults != nil && n.faults.crashed[i] {
			continue // a crashed node neither computes nor transmits
		}
		if n.evicted != nil && n.evicted[i] {
			continue // an evicted node is silenced for good
		}
		out := node.Step(n.Rounds, inboxes[i])
		if len(out) > 0 {
			active = true
		}
		n.deliver(i, out)
	}
	for _, byTarget := range n.pending {
		for _, q := range byTarget {
			if len(q) > 0 {
				active = true
			}
		}
	}
	if n.verifyPending > 0 {
		active = true
	}
	if f := n.faults; f != nil &&
		(len(f.unacked) > 0 || len(f.stage2At) > 0 || n.Rounds < f.lastEventRound) {
		// Unrepaired frames, a recovered node still waiting to
		// re-enter stage 2, or scheduled crash/recover events still
		// change the world: the network is not quiescent.
		active = true
	}
	if obs.On() {
		//lint:allow determinism wall clock feeds only the obs round-latency histogram, never protocol state
		obsRoundNS.Observe(float64(time.Since(began).Nanoseconds()))
	}
	return active
}

// Run executes rounds until quiescence or maxRounds, returning the
// number of rounds executed by this call and whether the network
// actually went quiet (converged == false means maxRounds elapsed
// with traffic still in flight — the caller must not read the node
// states as a converged outcome).
func (n *Network) Run(maxRounds int) (rounds int, converged bool) {
	start := n.Rounds
	converged = false
	for r := 0; r < maxRounds; r++ {
		if !n.RunRound() {
			converged = true
			break
		}
	}
	return n.Rounds - start, converged
}

// RunProtocol executes both stages of Algorithm 2: stage 1 (SPT
// construction with mutual correction) until quiescence, then stage 2
// (price relaxation with trigger verification) until quiescence. It
// returns the rounds each stage took and whether both stages went
// quiet. maxRounds bounds each stage — the paper guarantees
// convergence within n rounds per stage on honest reliable networks;
// adversarial runs and crash-forever fault plans may stay noisy, in
// which case the cap applies and converged is false.
func (n *Network) RunProtocol(maxRounds int) (stage1, stage2 int, converged bool) {
	n.stage2Started = false
	var c1, c2 bool
	stage1, c1 = n.Run(maxRounds)
	n.stage2Started = true
	for i, b := range n.Nodes {
		if n.faults != nil && n.faults.crashed[i] {
			continue // switched on recovery instead (applyFaultEvents)
		}
		b.StartStage2()
	}
	stage2, c2 = n.Run(maxRounds)
	converged = c1 && c2
	obsStage1Rounds.Set(int64(stage1))
	obsStage2Rounds.Set(int64(stage2))
	if converged {
		obsConverged.Set(1)
	} else {
		obsConverged.Set(0)
	}
	return stage1, stage2, converged
}

// States snapshots every node's state.
func (n *Network) States() []*NodeState {
	out := make([]*NodeState, len(n.Nodes))
	for i, b := range n.Nodes {
		out[i] = b.State()
	}
	return out
}

// AccusedSet returns the distinct accused node ids.
func (n *Network) AccusedSet() map[int]bool {
	out := map[int]bool{}
	for _, a := range n.Log {
		out[a.Offender] = true
	}
	return out
}

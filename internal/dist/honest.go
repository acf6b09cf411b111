package dist

import (
	"math"
	"slices"
)

// priceEps tolerates float noise in price comparisons.
const priceEps = 1e-9

// HonestNode follows Algorithm 2 faithfully: stage 1 with mutual
// corrections, stage 2 with triggered price relaxation and
// verification of entries it triggered.
type HonestNode struct {
	self int
	net  *Network
	st   NodeState

	// Stage-1 knowledge about neighbours.
	nbD    map[int]float64
	nbPath map[int][]int
	nbFH   map[int]int
	nbGen  map[int]int

	// gen is this node's state generation: bumped on every route
	// change and on every reboot (it survives Init, like a boot
	// counter in stable storage), and stamped into both announcement
	// types. Under faults, receivers only trust a price announcement
	// against the SPT state of the *same* generation — the pairing
	// that makes relaxation and verification sound while crashed
	// routes are being repaired.
	gen int

	// pendingCorrection marks neighbours we have instructed over the
	// reliable channel and are waiting on; the correction is resent
	// every round (keeping the network active) and escalates to a
	// public accusation after correctionGrace unanswered resends of
	// the *same* offer. The streak restarts whenever our offer or the
	// neighbour's announced state changes — a correction epoch only
	// counts refusals of one stable instruction, which keeps honest
	// nodes safe during cascaded repairs (async delays, mid-run
	// re-declarations).
	pendingCorrection map[int]bool
	pendingOffer      map[int]float64
	correctionStreak  map[int]int

	// Stage-2 state.
	stage2   bool
	triggers map[int]int // relay k → neighbour that triggered p[k]
	// lastAnnounced[j] holds neighbour j's most recent price
	// announcement, re-verified each round for entries that claim us
	// as the trigger.
	lastAnnounced map[int]*PriceAnnounce
	dirty         bool // state changed; broadcast next Step
	accused       map[int]bool

	// violStreak counts, per (neighbour, relay) entry, how many
	// consecutive verification rounds the entry has looked
	// understated. Under faults an isolated mismatch is usually a
	// healing transient (the announcer has not yet seen our repaired
	// state); only a violation that survives the full correction
	// grace becomes an accusation. Without faults verification stays
	// immediate and this map is unused.
	violStreak map[[2]int]int

	// overStreak is the overstatement counterpart: entries claiming us
	// as the trigger that sit *above* our recomputed candidate. Unlike
	// understatement it is always grace-gated — a stale-higher entry
	// is a legitimate transient on any channel (the announcer simply
	// has not re-relaxed against our latest state yet), so only a
	// value that never heals is a price inflater.
	overStreak map[[2]int]int

	// evictCited marks neighbours whose latest stored announcement or
	// correction routed through an evicted node; the audit loop
	// streaks it per round (evictCitedStreak) and accuses past the
	// grace window — citing a ghost is how a colluder keeps an evicted
	// partner in the economy.
	evictCited       map[int]bool
	evictCitedStreak map[int]int
}

// Init implements Behavior.
func (h *HonestNode) Init(self int, net *Network) {
	h.self = self
	h.net = net
	h.gen++ // a reboot is a new generation; h.gen survives Init
	h.st = NodeState{D: Inf, FH: -1, Prices: map[int]float64{}}
	h.nbD = map[int]float64{}
	h.nbPath = map[int][]int{}
	h.nbFH = map[int]int{}
	h.nbGen = map[int]int{}
	h.violStreak = map[[2]int]int{}
	h.overStreak = map[[2]int]int{}
	h.evictCited = map[int]bool{}
	h.evictCitedStreak = map[int]int{}
	h.pendingCorrection = map[int]bool{}
	h.pendingOffer = map[int]float64{}
	h.correctionStreak = map[int]int{}
	h.triggers = map[int]int{}
	h.lastAnnounced = map[int]*PriceAnnounce{}
	h.accused = map[int]bool{}
	if self == net.Dest {
		h.st.D = 0
		h.st.Path = []int{self}
	}
	h.dirty = true
}

// State implements Behavior.
func (h *HonestNode) State() *NodeState { return &h.st }

// Evict implements Behavior: offender has been removed by quorum.
// Everything learned from it — and everything learned from neighbours
// whose announced routes ran through it — is poisoned and dropped; if
// our own route used it, we fall back to no-route and rebuild through
// stage-1 repair. resetPrices opens a new generation, so post-eviction
// announcements are never confused with the pre-eviction economy.
func (h *HonestNode) Evict(o int) {
	delete(h.nbD, o)
	delete(h.nbPath, o)
	delete(h.nbFH, o)
	delete(h.nbGen, o)
	delete(h.lastAnnounced, o)
	delete(h.pendingCorrection, o)
	delete(h.pendingOffer, o)
	delete(h.correctionStreak, o)
	delete(h.evictCited, o)
	delete(h.evictCitedStreak, o)
	for j, p := range h.nbPath {
		if j != o && !slices.Contains(p, o) && h.nbFH[j] != o {
			continue
		}
		delete(h.nbD, j)
		delete(h.nbPath, j)
		delete(h.nbFH, j)
		delete(h.nbGen, j)
		delete(h.lastAnnounced, j)
	}
	if h.self == h.net.Dest {
		h.dirty = true
		return
	}
	if h.st.FH == o || slices.Contains(h.st.Path, o) {
		h.st.D = Inf
		h.st.FH = -1
		h.st.Path = nil
	}
	h.resetPrices()
	h.dirty = true
}

// citesEvicted reports whether an announced route runs through an
// evicted node — state no honest node would hold after processing its
// Evict notifications.
func (h *HonestNode) citesEvicted(fh int, path []int) bool {
	if !h.net.EvictionEnabled() {
		return false
	}
	if fh >= 0 && h.net.Evicted(fh) {
		return true
	}
	for _, v := range path {
		if h.net.Evicted(v) {
			return true
		}
	}
	return false
}

// Step implements Behavior.
func (h *HonestNode) Step(round int, inbox []Message) []Message {
	var out []Message
	if h.self == h.net.Dest {
		// The access point anchors stage 1 and ignores prices, but it
		// must notice reboots: a neighbour that once held a route and
		// now announces an infinite distance has lost its state —
		// including this access point's original advertisement, which
		// was delivered and acknowledged in the neighbour's previous
		// life, so the ARQ layer will never resend it. Re-advertise,
		// or the neighbour can only rebuild through detours and the
		// SPT quiesces on a wrong tree.
		for _, m := range inbox {
			if m.SPT == nil {
				continue
			}
			if d, known := h.nbD[m.From]; known && !math.IsInf(d, 1) && math.IsInf(m.SPT.D, 1) {
				h.dirty = true
			}
			h.nbD[m.From] = m.SPT.D
		}
		if h.dirty {
			h.dirty = false
			return []Message{h.announceSPT()}
		}
		return nil
	}
	// Record neighbours' price announcements even before our own
	// stage 2 starts: a node that rebooted mid-stage-2 collects its
	// neighbourhood's current prices (re-sent under the reboot-resync
	// rule below) during its stage-1 resync window, so re-entering
	// stage 2 can relax from live knowledge instead of deadlocking on
	// entries nobody will announce again. Under faults, announcements
	// from a generation older than the sender's current route are
	// leftovers of a dead state and are never stored over fresher
	// knowledge (same-round pairs are fine: the matching SPT
	// announcement in this inbox is processed right after).
	for _, m := range inbox {
		if m.Price == nil {
			continue
		}
		if h.net.FaultsEnabled() && m.Price.Gen < h.nbGen[m.From] {
			continue
		}
		h.lastAnnounced[m.From] = m.Price
	}
	out = append(out, h.handleStage1(inbox)...)
	if h.stage2 {
		out = append(out, h.handleStage2(inbox)...)
	}
	if h.dirty {
		h.dirty = false
		out = append(out, h.announceSPT())
		if h.stage2 {
			out = append(out, h.announcePrices())
		}
	}
	return out
}

func (h *HonestNode) announceSPT() Message {
	return Message{From: h.self, To: Broadcast, SPT: &SPTAnnounce{
		D: h.st.D, FH: h.st.FH, Path: slices.Clone(h.st.Path), Cost: h.net.Cost(h.self),
		Gen: h.gen,
	}}
}

// handleStage1 processes SPT announcements and corrections.
func (h *HonestNode) handleStage1(inbox []Message) []Message {
	var out []Message
	for _, m := range inbox {
		switch {
		case m.Correct != nil:
			if h.citesEvicted(m.From, m.Correct.Path) {
				// An instruction routing us through a ghost: refuse it
				// and remember who offered (audited below).
				h.evictCited[m.From] = true
				continue
			}
			// A neighbour with a better (or authoritative, if it is
			// our first hop) route instructs us over the reliable
			// channel; honest nodes comply (Algorithm 2, stage 1).
			if m.Correct.D < h.st.D || h.st.FH == m.From {
				h.adopt(m.From, m.Correct.D, m.Correct.Path)
			}
		case m.SPT != nil:
			a := m.SPT
			j := m.From
			if h.citesEvicted(a.FH, a.Path) {
				// Refuse to even store the announcement: adopting (or
				// relaxing through) a route that runs over an evicted
				// node would reopen the hole eviction just closed.
				h.evictCited[j] = true
				continue
			}
			delete(h.evictCited, j)
			delete(h.evictCitedStreak, j)
			//lint:allow floatcmp change detection on verbatim-copied replica state, not on recomputed arithmetic
			if h.nbD[j] != a.D || h.nbFH[j] != a.FH {
				// The neighbour's state moved: any running correction
				// epoch restarts (it is responding, not refusing).
				h.correctionStreak[j] = 0
			}
			if h.net.FaultsEnabled() && h.nbGen[j] != a.Gen {
				// The neighbour's route generation moved (route change
				// or reboot): any stored price announcement from the
				// old generation describes a state that no longer
				// exists. Drop it unless it already matches the new
				// generation (the pair travels together, so a fresh pa
				// from this very inbox was stored in the pre-pass).
				if pa := h.lastAnnounced[j]; pa != nil && pa.Gen != a.Gen {
					delete(h.lastAnnounced, j)
				}
			}
			h.nbGen[j] = a.Gen
			h.nbD[j] = a.D
			h.nbFH[j] = a.FH
			h.nbPath[j] = a.Path
			// Reboot resync: a neighbour announcing an *infinite*
			// distance while we hold a route has lost its protocol
			// state (a crashed node reboots knowing only the public
			// declarations). Anything we told it before — possibly
			// delivered and acknowledged, so the ARQ layer will never
			// resend it — died with its memory; re-advertise our full
			// state so it can rebuild. Inert in fault-free runs: the
			// only Inf announcements there are the initial ones, which
			// arrive while we are still at Inf ourselves or in the
			// same inbox as the announcement we adopt from (which sets
			// dirty anyway).
			if math.IsInf(a.D, 1) && !math.IsInf(h.st.D, 1) {
				h.dirty = true
			}
			// Standard relaxation through j.
			if cand := a.D + h.net.w(h.self, j); cand < h.st.D-priceEps {
				h.adoptVia(j, a)
			}
		}
	}
	// Audit every stored neighbour view each step — not only on
	// fresh announcements. Our own distance may have changed since a
	// quiet neighbour last spoke, making its stored state newly
	// inconsistent; without this re-audit the repair of a raised
	// declaration stalls (the neighbour has no reason to announce
	// again).
	for j := range h.nbD {
		if h.inconsistent(j) {
			if !h.pendingCorrection[j] {
				h.pendingCorrection[j] = true
				h.correctionStreak[j] = 0
			}
		} else {
			delete(h.pendingCorrection, j)
			h.correctionStreak[j] = 0
		}
	}
	// Drive pending corrections: resend every round, escalate after
	// the grace period (Algorithm 2, stage 1: a node that will not
	// accept a legitimate correction is cheating). Emission order is
	// sorted: the network's delay and fault draws are consumed in
	// message order, so map-order emission would break replay.
	pend := make([]int, 0, len(h.pendingCorrection))
	for j := range h.pendingCorrection {
		pend = append(pend, j)
	}
	slices.Sort(pend)
	for _, j := range pend {
		if !h.inconsistent(j) { // our own state may have moved
			delete(h.pendingCorrection, j)
			h.correctionStreak[j] = 0
			continue
		}
		myOffer := h.st.D + h.net.w(j, h.self)
		if prev, ok := h.pendingOffer[j]; !ok || math.Abs(prev-myOffer) > priceEps {
			// A different instruction starts a fresh epoch.
			h.pendingOffer[j] = myOffer
			h.correctionStreak[j] = 0
		}
		h.correctionStreak[j]++
		if h.correctionStreak[j] > h.net.CorrectionGrace() {
			delete(h.pendingCorrection, j)
			if !h.accused[j] {
				h.accused[j] = true
				acc := Accusation{Offender: j, Kind: "refused stage-1 correction"}
				h.st.Accusations = append(h.st.Accusations, acc)
				out = append(out, Message{From: h.self, To: Broadcast, Accuse: &acc})
			}
			continue
		}
		out = append(out, Message{From: h.self, To: j, Correct: &Correction{
			D:    myOffer,
			Path: slices.Clone(h.st.Path),
		}})
	}
	// Audit evicted-route citations like pending corrections: the
	// streak advances every round the neighbour's latest word remains
	// poisoned (a clean announcement resets it above), and escalates
	// past the grace window — a node that *keeps* routing through a
	// ghost is propping up an evicted partner, not lagging on gossip.
	// verifyPending keeps the network active while the verdict pends,
	// so a colluder cannot dodge by falling silent.
	cited := make([]int, 0, len(h.evictCited))
	for j := range h.evictCited {
		cited = append(cited, j)
	}
	slices.Sort(cited)
	for _, j := range cited {
		if h.accused[j] {
			delete(h.evictCited, j)
			continue
		}
		h.evictCitedStreak[j]++
		if h.evictCitedStreak[j] > h.net.CorrectionGrace() {
			delete(h.evictCited, j)
			h.accused[j] = true
			acc := Accusation{Offender: j, Kind: "routed through evicted node"}
			h.st.Accusations = append(h.st.Accusations, acc)
			out = append(out, Message{From: h.self, To: Broadcast, Accuse: &acc})
			continue
		}
		h.net.verifyPending++
	}
	return out
}

// inconsistent applies Algorithm 2's two stage-1 checks to the last
// announcement we hold from neighbour j.
func (h *HonestNode) inconsistent(j int) bool {
	dj, ok := h.nbD[j]
	if !ok || math.IsInf(h.st.D, 1) || j == h.net.Dest {
		return false
	}
	myOffer := h.st.D + h.net.w(j, h.self)
	if h.nbFH[j] == h.self {
		// Case 2: we are j's first hop; its distance must be exactly
		// ours plus the weight of its arc to us.
		return math.Abs(dj-myOffer) > priceEps
	}
	// Case 1: we can offer j a strictly better route.
	return myOffer < dj-priceEps
}

func (h *HonestNode) adoptVia(j int, a *SPTAnnounce) {
	h.st.D = a.D + h.net.w(h.self, j)
	h.st.FH = j
	if a.Path != nil {
		h.st.Path = append([]int{h.self}, a.Path...)
	} else {
		h.st.Path = nil
	}
	h.resetPrices()
	h.dirty = true
}

// adopt applies a correction: distance d with first hop j, whose own
// route is jPath.
func (h *HonestNode) adopt(j int, d float64, jPath []int) {
	raised := !math.IsInf(h.st.D, 1) && d > h.st.D+priceEps
	h.st.D = d
	h.st.FH = j
	if jPath != nil {
		h.st.Path = append([]int{h.self}, jPath...)
	} else {
		h.st.Path = nil
	}
	h.resetPrices()
	h.dirty = true
	if raised && h.stage2 && h.net.FaultsEnabled() {
		// Our distance regressed mid-stage-2: the upstream route is
		// being repaired after a reboot and our current D is
		// provisional (possibly above its final value). Relaxing
		// against it would lock in understated entries (the min is
		// monotone) and verifying against it would accuse honest
		// neighbours whose announcements predate the regression —
		// so step out of stage 2 and let the network re-admit us
		// once the route has settled (deferStage2).
		h.stage2 = false
		h.st.Prices = map[int]float64{}
		h.triggers = map[int]int{}
		h.net.deferStage2(h.self)
	}
}

// resetPrices reinitializes the stage-2 entries after a route
// change: one +Inf entry per relay on the current path (§III.C
// initialization). Every reset opens a new state generation, so
// receivers can tell which route our next price announcements are
// relative to.
func (h *HonestNode) resetPrices() {
	h.gen++
	h.st.Prices = map[int]float64{}
	h.triggers = map[int]int{}
	if !h.stage2 {
		return
	}
	for _, k := range h.relays() {
		h.st.Prices[k] = Inf
	}
}

// relays returns the interior nodes of this node's current path.
func (h *HonestNode) relays() []int {
	if len(h.st.Path) <= 2 {
		return nil
	}
	return h.st.Path[1 : len(h.st.Path)-1]
}

// StartStage2 switches the node into price-computation mode.
func (h *HonestNode) StartStage2() {
	h.stage2 = true
	h.resetPrices()
	h.relaxAll()
	h.dirty = true
}

// Refresh implements Behavior: drop back to stage 1 after a
// declaration change and re-announce, so corrections and relaxations
// can repair the SPT. Routing state is kept — only monotone-stale
// price entries are discarded.
func (h *HonestNode) Refresh() {
	h.stage2 = false
	h.lastAnnounced = map[int]*PriceAnnounce{}
	h.resetPrices()
	h.dirty = true
}

func (h *HonestNode) announcePrices() Message {
	pa := &PriceAnnounce{Prices: map[int]float64{}, Triggers: map[int]int{}, Gen: h.gen}
	for k, p := range h.st.Prices {
		pa.Prices[k] = p
		if tr, ok := h.triggers[k]; ok {
			pa.Triggers[k] = tr
		}
	}
	return Message{From: h.self, To: Broadcast, Price: pa}
}

// onNeighbourPath reports whether relay k is an interior node of
// neighbour j's announced path.
func (h *HonestNode) onNeighbourPath(j, k int) bool {
	p := h.nbPath[j]
	if len(p) <= 2 {
		return false
	}
	return slices.Contains(p[1:len(p)-1], k)
}

// candidateVia computes the §III.C relaxation value for relay k
// through neighbour j, or +Inf if not yet computable.
func (h *HonestNode) candidateVia(j, k int) float64 {
	if j == k {
		return Inf // a detour through k cannot avoid k
	}
	// Note an accused j is deliberately NOT quarantined here: dropping
	// its announcements as a relaxation basis removes the finite anchor
	// of every entry it supported, and the remaining mutually-
	// referential candidates climb forever — count-to-infinity on the
	// price plane, which keeps the epoch from ever quiescing. The
	// poisoned fixpoint is tolerated instead: audits network-wide are
	// suspended the moment the accusation floods (priceAuditsSuspended),
	// the epoch settles, and the next epoch re-solves from scratch on
	// the evicted topology.
	var dj float64
	if j == h.net.Dest {
		dj = 0
	} else {
		var ok bool
		dj, ok = h.nbD[j]
		if !ok || math.IsInf(dj, 1) {
			return Inf
		}
		// Without j's full route we cannot tell whether its distance
		// avoids k; using it anyway could lock in an understated
		// price (relaxation only ever decreases).
		if h.nbPath[j] == nil {
			return Inf
		}
	}
	base := h.net.w(h.self, j) + dj - h.st.D
	if j != h.net.Dest && h.onNeighbourPath(j, k) {
		pa := h.lastAnnounced[j]
		if pa == nil {
			return Inf
		}
		if h.net.FaultsEnabled() && pa.Gen != h.nbGen[j] {
			// The announcement predates (or, mid-inbox, postdates)
			// the route state we know j by; mixing the two could
			// produce a candidate nobody ever computed. Wait for the
			// matching pair.
			return Inf
		}
		pjk, ok := pa.Prices[k]
		if !ok {
			return Inf
		}
		return pjk + base
	}
	return h.net.relayCost(k, h.st.Path) + base
}

// relaxAll recomputes every entry from current knowledge. The
// recomputation is stateless — each entry is the minimum over the
// *currently stored* neighbour announcements, not a historical min.
// On reliable channels the two coincide (honest announcements only
// ever lower their entries, so the latest announcement is the best
// one); under faults the stateless form is what keeps the node
// honest: when a neighbour's state is repaired after a crash and its
// announced basis rises, the entries derived from the dead state
// rise with it instead of staying locked at a value nobody can
// justify any more. The previous trigger is kept while its value
// stands, so quiescent states do not churn announcements.
func (h *HonestNode) relaxAll() {
	for _, k := range h.relays() {
		best, bestJ := Inf, -1
		for _, j := range h.net.Neighbors(h.self) {
			if cand := h.candidateVia(j, k); cand < best-priceEps {
				best, bestJ = cand, j
			}
		}
		if math.Abs(best-h.st.Prices[k]) <= priceEps ||
			(math.IsInf(best, 1) && math.IsInf(h.st.Prices[k], 1)) {
			continue // unchanged (keep the original trigger)
		}
		h.st.Prices[k] = best
		if bestJ >= 0 {
			h.triggers[k] = bestJ
		} else {
			delete(h.triggers, k)
		}
		h.dirty = true
	}
}

// handleStage2 relaxes from the recorded price announcements (stored
// in Step) and verifies entries that claim us as the trigger.
func (h *HonestNode) handleStage2(inbox []Message) []Message {
	var out []Message
	h.relaxAll()
	// Verification (Algorithm 2, stage 2): for every neighbour entry
	// that claims us as the trigger, recompute the candidate from
	// our own state. Prices decrease monotonically, so a correct
	// (possibly stale) announcement is never *below* our current
	// candidate; one that is has been understated. A node without a
	// route cannot verify anything — its expectation would be
	// infinite and every finite announcement would look understated;
	// a freshly rebooted node waits until it re-acquires a route.
	if math.IsInf(h.st.D, 1) {
		return out
	}
	if h.net.priceAuditsSuspended() {
		// A price-cheat accusation stands unresolved (§III.H flooded it
		// to everyone): the price plane is poisoned at a known source,
		// and it stays poisoned until the epoch audit removes the
		// source — entries echoing the live cheater's deflated data
		// can never heal, no grace period is long enough, and grading
		// them would frame honest relays one after another until a web
		// of mutual suspicion annuls the one testimony that matters.
		// Fresh verdicts wait for the next epoch's from-scratch
		// re-solve on clean data; the flooded accusation already meets
		// the quorum the record audit needs.
		clear(h.violStreak)
		clear(h.overStreak)
		return out
	}
	seen := map[[2]int]bool{}
	overSeen := map[[2]int]bool{}
	nbs := make([]int, 0, len(h.lastAnnounced))
	for j := range h.lastAnnounced {
		nbs = append(nbs, j)
	}
	slices.Sort(nbs)
	for _, j := range nbs {
		pa := h.lastAnnounced[j]
		if h.net.FaultsEnabled() && pa.Gen != h.nbGen[j] {
			// The announcement and the route state we know j by are
			// from different generations (its matching SPT update is
			// still in flight); judging one against the other would
			// accuse honest repairs. The ARQ layer is already
			// retransmitting the missing half.
			continue
		}
		ks := make([]int, 0, len(pa.Triggers))
		for k := range pa.Triggers {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		for _, k := range ks {
			tr := pa.Triggers[k]
			if tr != h.self || h.accused[j] {
				continue
			}
			dj, ok := h.nbD[j]
			if !ok || math.IsInf(dj, 1) {
				continue
			}
			var exp float64
			base := h.net.w(j, h.self) + h.st.D - dj
			if myP, onMine := h.st.Prices[k]; onMine {
				if math.IsInf(myP, 1) {
					continue // our own entry not yet resolved
				}
				exp = myP + base
			} else {
				exp = h.net.relayCost(k, h.nbPath[j]) + base
			}
			if pa.Prices[k] < exp-1e-6 {
				if h.net.FaultsEnabled() || len(h.accused) > 0 || h.net.accusationsLive() {
					// The entry was computed from what j knew of our
					// state when it relaxed; while crashed routes are
					// being repaired that knowledge may trail our own
					// repairs by several retransmission timeouts. A
					// cheat persists; a transient heals as soon as
					// our announcements land and j re-relaxes — so
					// accuse only a violation that outlives the same
					// grace stage-1 corrections get. verifyPending
					// keeps the network active while we wait. The same
					// trailing-knowledge transient appears on reliable
					// channels once anyone stands accused (§III.H
					// floods make that global knowledge): quarantining
					// auditors' entries rise (candidateVia), and the
					// stale lower copies derived from them heal one
					// relaxation hop per delivery — so the grace also
					// applies whenever the accusation ledger is live.
					key := [2]int{j, k}
					seen[key] = true
					h.violStreak[key]++
					if h.violStreak[key] <= h.net.priceAuditGrace() {
						h.net.verifyPending++
						continue
					}
				}
				h.accused[j] = true
				acc := Accusation{Offender: j, Kind: "understated price entry"}
				h.st.Accusations = append(h.st.Accusations, acc)
				out = append(out, Message{From: h.self, To: Broadcast, Accuse: &acc})
			} else if !math.IsInf(pa.Prices[k], 1) && pa.Prices[k] > exp+1e-6 {
				// Overstated: the entry sits above what j could have
				// computed from our state — a price inflater trying to
				// widen its take. Unlike understatement this is always
				// grace-gated, on any channel: an honest stale-higher
				// entry is a routine transient (j has not re-relaxed
				// against our latest announcement yet) that heals
				// within a delivery round trip; only a value that
				// never comes down is a cheat. (+Inf is initialization,
				// not a price.)
				key := [2]int{j, k}
				overSeen[key] = true
				h.overStreak[key]++
				if h.overStreak[key] <= h.net.priceAuditGrace() {
					h.net.verifyPending++
					continue
				}
				h.accused[j] = true
				acc := Accusation{Offender: j, Kind: "overstated price entry"}
				h.st.Accusations = append(h.st.Accusations, acc)
				out = append(out, Message{From: h.self, To: Broadcast, Accuse: &acc})
			}
		}
	}
	// A streak not renewed this round was healed or superseded.
	for key := range h.violStreak {
		if !seen[key] {
			delete(h.violStreak, key)
		}
	}
	for key := range h.overStreak {
		if !overSeen[key] {
			delete(h.overStreak, key)
		}
	}
	return out
}

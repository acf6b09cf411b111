// Campus: the paper's motivating scenario end to end. Students'
// laptops form an ad hoc network around one access point; each
// laptop's radio has a per-link power cost (α + β·d^κ). A student
// uploads a 50-packet session: the mechanism quotes a strategyproof
// price, the packet is signed, the access point acknowledges, and
// the ledger settles per-packet payments into every relay's account.
// The same student then retrieves a download: each relay signs an
// acknowledgement after forwarding, and only acknowledged relays are
// credited (§III.H's downlink). Settlement only moves money between
// accounts, so the ledger's total is the same before and after.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sort"

	"truthroute/internal/auth"
	"truthroute/internal/core"
	"truthroute/internal/ledger"
	"truthroute/internal/wireless"
)

func main() {
	const (
		students = 60
		side     = 1200.0 // metres of campus
		radio    = 300.0  // transmission range
		packets  = 50
	)
	rng := rand.New(rand.NewPCG(2004, 7))

	// Scatter laptops; node 0 is the access point in the library.
	dep := wireless.PlaceUniform(students, side, radio, rng)
	model := wireless.NewAffinePower(students, 2, 300, 500, 10, 50, rng)
	net := dep.LinkGraph(model)
	fmt.Printf("campus: %d laptops, %d usable links\n", students, net.M())

	// Everyone gets an account at the access point; per §III.H all
	// clearing happens there against signed traffic.
	keys := auth.NewKeyring(students)
	book := ledger.New(keys, 0, 1_000_000)
	opening := book.TotalCirculating()

	// Quote every laptop's route at once (the §III.C batch engine).
	quotes := core.AllLinkQuotes(net, 0)

	// Student 7 uploads a session.
	src := pickSource(quotes)
	q := quotes[src]
	fmt.Printf("\nstudent %d uploads %d packets along %v (path cost %.0f)\n",
		src, packets, q.Path, q.Cost)
	for _, k := range q.Relays() {
		fmt.Printf("  relay %-3d earns %.0f per packet\n", k, q.Payments[k])
	}

	// Sign, deliver, acknowledge, settle.
	pkt := auth.NewPacket(keys[src], src, 1, 0, []byte("homework.tar.gz"))
	if err := auth.Verify(keys, pkt); err != nil {
		log.Fatal("relay would refuse to forward: ", err)
	}
	ack := auth.NewAck(keys[0], 0, src, 1, 0)
	if err := book.SettleUplink(pkt, ack, q, packets); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nledger after settlement (session of %d packets):\n", packets)
	fmt.Printf("  student %-3d balance %.0f (charged %.0f)\n", src, book.Balance(src), float64(packets)*q.Total())
	for _, k := range q.Relays() {
		fmt.Printf("  relay   %-3d balance %.0f\n", k, book.Balance(k))
	}

	// A free rider cannot forge the access point's acknowledgement:
	forged := auth.NewAck(keys[q.Relays()[0]], 0, src, 2, 0)
	pkt2 := auth.NewPacket(keys[src], src, 2, 0, []byte("more"))
	if err := book.SettleUplink(pkt2, forged, q, 1); err != nil {
		fmt.Println("\nfree-riding attempt rejected:", err)
	}

	// The student downloads the results along the reversed path. The
	// relay nearest the access point forwards but never acknowledges,
	// so it is not credited and the student is not charged for it.
	relays := q.Relays()
	silent := relays[len(relays)-1]
	var acks []auth.Ack
	for _, k := range relays {
		if k != silent {
			acks = append(acks, auth.NewAck(keys[k], k, src, 3, 0))
		}
	}
	before := book.Balance(src)
	unacked, err := book.SettleDownlink(3, q, acks, packets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstudent %d downloads %d packets: charged %.0f, relays %v unacknowledged (not paid)\n",
		src, packets, before-book.Balance(src), unacked)
	fmt.Printf("money in circulation: %.0f before, %.0f after every settlement\n",
		opening, book.TotalCirculating())
}

// pickSource returns a source with at least two relays, preferring
// low ids, so the demo shows real multi-hop payments.
func pickSource(quotes []*core.Quote) int {
	var ids []int
	for i, q := range quotes {
		if q != nil && len(q.Relays()) >= 2 && len(q.Monopolists()) == 0 {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		log.Fatal("no multi-hop source in this deployment; re-seed")
	}
	sort.Ints(ids)
	return ids[0]
}

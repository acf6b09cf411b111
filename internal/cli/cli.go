// Package cli implements the three command-line tools (unicast-sim,
// paytool, disttrace) as testable functions; the cmd/ mains are thin
// wrappers. Each Run* function parses its own flags, writes to the
// supplied streams, and returns a process exit code.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"truthroute/internal/auth"
	"truthroute/internal/collusion"
	"truthroute/internal/core"
	"truthroute/internal/dist"
	"truthroute/internal/experiment"
	"truthroute/internal/graph"
)

// RunUnicastSim regenerates Figure 3 panels.
func RunUnicastSim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unicast-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figure := fs.String("figure", "all", "panel to regenerate: 3a..3f, node, topo, life, ptilde, loss, oracle, or all")
	full := fs.Bool("full", false, "use the paper's full parameters (slow)")
	seed := fs.Uint64("seed", 2004, "random seed (runs are reproducible per seed)")
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	obsf := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := startProfiles(*cpuProf, *memProf, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "unicast-sim:", err)
		return 1
	}
	defer stopProf()
	obsFin, err := obsf.start(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "unicast-sim:", err)
		return 1
	}
	defer obsFin(stdout)
	ids := experiment.FigureIDs()
	if *figure != "all" {
		ids = []string{*figure}
	}
	for _, id := range ids {
		//lint:allow determinism wall clock feeds only the human-readable elapsed trailer, never figure data
		start := time.Now()
		s, err := experiment.RunFigure(id, *full, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "unicast-sim:", err)
			return 1
		}
		if *asCSV {
			if err := s.RenderCSV(stdout); err != nil {
				fmt.Fprintln(stderr, "unicast-sim:", err)
				return 1
			}
		} else {
			s.Render(stdout)
			//lint:allow determinism elapsed-time trailer is cosmetic; the -csv path used for goldens omits it
			fmt.Fprintf(stdout, "  (seed %d, %s, %.1fs)\n\n", *seed, simMode(*full), time.Since(start).Seconds())
		}
	}
	return 0
}

func simMode(full bool) string {
	if full {
		return "full paper parameters"
	}
	return "reduced smoke parameters; pass -full for the paper's"
}

// RunPaytool computes a quote for one request over a JSON graph.
func RunPaytool(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paytool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodePath := fs.String("graph", "", "node-weighted graph JSON file")
	linkPath := fs.String("linkgraph", "", "link-weighted graph JSON file")
	edgePath := fs.String("edgegraph", "", "edge-weighted graph JSON file (Nisan-Ronen edge-agent model)")
	source := fs.Int("source", -1, "source node id")
	dest := fs.Int("dest", 0, "destination node id (default: the access point 0)")
	scheme := fs.String("scheme", "vcg", "payment scheme: vcg or neighborhood")
	engine := fs.String("engine", "fast", "replacement-path engine: fast or naive")
	asJSON := fs.Bool("json", false, "emit the quote as JSON")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	obsf := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, perr := startProfiles(*cpuProf, *memProf, stderr)
	if perr != nil {
		fmt.Fprintln(stderr, "paytool:", perr)
		return 1
	}
	defer stopProf()
	obsFin, perr := obsf.start(stderr)
	if perr != nil {
		fmt.Fprintln(stderr, "paytool:", perr)
		return 1
	}
	defer obsFin(stdout)
	set := 0
	for _, p := range []string{*nodePath, *linkPath, *edgePath} {
		if p != "" {
			set++
		}
	}
	if set != 1 {
		fmt.Fprintln(stderr, "paytool: exactly one of -graph, -linkgraph or -edgegraph is required")
		return 2
	}
	if *source < 0 {
		fmt.Fprintln(stderr, "paytool: -source is required")
		return 2
	}

	eng, err := core.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(stderr, "paytool: -engine:", err)
		return 2
	}
	if *edgePath != "" {
		return runEdgePaytool(*edgePath, *source, *dest, eng, *asJSON, stdout, stderr)
	}
	var q *core.Quote
	var ng *graph.NodeGraph
	if *linkPath != "" {
		var lg *graph.LinkGraph
		lg, err = loadLinkGraph(*linkPath)
		if err == nil {
			q, err = core.LinkQuote(lg, *source, *dest)
		}
	} else {
		ng, err = loadNodeGraph(*nodePath)
		if err == nil {
			switch *scheme {
			case "vcg":
				q, err = core.UnicastQuote(ng, *source, *dest, eng)
			case "neighborhood":
				q, err = core.NeighborhoodQuote(ng, *source, *dest)
			default:
				fmt.Fprintln(stderr, "paytool: unknown -scheme "+*scheme)
				return 2
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "paytool:", err)
		return 1
	}

	if *asJSON {
		if err := json.NewEncoder(stdout).Encode(q); err != nil {
			fmt.Fprintln(stderr, "paytool:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "least cost path: %v (cost %g)\n", q.Path, q.Cost)
	var payees []int
	for k := range q.Payments {
		payees = append(payees, k)
	}
	sort.Ints(payees)
	for _, k := range payees {
		fmt.Fprintf(stdout, "  pay node %-4d %g\n", k, q.Payments[k])
	}
	fmt.Fprintf(stdout, "total payment: %g\n", q.Total())
	if mono := q.Monopolists(); len(mono) > 0 {
		fmt.Fprintf(stdout, "WARNING: monopolists %v — their payment is unbounded; the paper assumes biconnectivity\n", mono)
	}
	if ng != nil {
		if deals, derr := collusion.FindResale(ng, *source, *dest, core.EngineNaive); derr == nil && len(deals) > 0 {
			fmt.Fprintf(stdout, "resale opportunity (§III.H): route via %d, pay %g instead of %g\n",
				deals[0].Via, deals[0].SourcePays(), deals[0].DirectTotal)
		}
	}
	return 0
}

// runEdgePaytool handles the edge-agent model branch.
func runEdgePaytool(path string, source, dest int, eng core.Engine, asJSON bool, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "paytool:", err)
		return 1
	}
	//lint:allow errcheck file is opened read-only; Close cannot lose buffered data
	defer f.Close()
	ew, err := graph.ReadEdgeWeighted(f)
	if err != nil {
		fmt.Fprintln(stderr, "paytool:", err)
		return 1
	}
	q, err := core.EdgeVCGQuote(ew, source, dest, eng)
	if err != nil {
		fmt.Fprintln(stderr, "paytool:", err)
		return 1
	}
	if asJSON {
		if err := json.NewEncoder(stdout).Encode(q); err != nil {
			fmt.Fprintln(stderr, "paytool:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "shortest path: %v (cost %g)\n", q.Path, q.Cost)
	for i := 0; i+1 < len(q.Path); i++ {
		u, v := q.Path[i], q.Path[i+1]
		key := [2]int{u, v}
		if v < u {
			key = [2]int{v, u}
		}
		fmt.Fprintf(stdout, "  pay edge {%d,%d}  %g\n", key[0], key[1], q.Payments[key])
	}
	fmt.Fprintf(stdout, "total payment: %g\n", q.Total())
	if mono := q.Monopolists(); len(mono) > 0 {
		fmt.Fprintf(stdout, "WARNING: bridge edges %v have unbounded payments\n", mono)
	}
	return 0
}

func loadNodeGraph(path string) (*graph.NodeGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:allow errcheck file is opened read-only; Close cannot lose buffered data
	defer f.Close()
	return graph.ReadNodeGraph(f)
}

func loadLinkGraph(path string) (*graph.LinkGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:allow errcheck file is opened read-only; Close cannot lose buffered data
	defer f.Close()
	return graph.ReadLinkGraph(f)
}

// RunDisttrace runs the distributed protocol and prints the outcome.
func RunDisttrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("disttrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 30, "nodes in the random network")
	p := fs.Float64("p", 0.2, "chord probability of the random biconnected network")
	seed := fs.Uint64("seed", 7, "random seed")
	fixture := fs.String("fixture", "", "use a paper fixture instead: fig2 or fig4")
	adversary := fs.String("adversary", "", "comma-separated adversary specs: hider:NODE:HIDDEN, underpay:NODE:FACTOR, overpay:NODE:FACTOR, mute:NODE, impersonate:NODE:VICTIM, equivocate:NODE, replay:NODE, tamper:NODE, drop:NODE:VICTIM[+VICTIM...], collude:LEADER:PARTNER:FACTOR")
	delay := fs.Int("delay", 1, "maximum per-message delay in rounds (async when > 1)")
	signed := fs.Bool("signed", false, "enable §III.D message signatures")
	evict := fs.Int("evict", 0, "arm quorum-N accusation eviction and run the epochal protocol (0 = off)")
	roundlog := fs.Bool("roundlog", false, "print a per-round traffic summary")
	loss := fs.Float64("loss", 0, "i.i.d. per-frame loss probability in [0,1)")
	dup := fs.Float64("dup", 0, "per-frame duplication probability in [0,1)")
	burst := fs.String("burst", "", "Gilbert-Elliott burst loss: PGB:PBG:LOSSGOOD:LOSSBAD")
	crash := fs.String("crash", "", "crash schedule: NODE:AT:RECOVER[,...] (RECOVER=-1 never)")
	partition := fs.String("partition", "", "partition schedule: AT:HEAL:V1+V2+...[,...]")
	jitter := fs.Int("jitter", 0, "extra random per-frame delay in [0,JITTER] rounds")
	reorder := fs.Bool("reorder", false, "lift the per-channel FIFO clamp (needs -jitter)")
	obsf := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	obsFin, oerr := obsf.start(stderr)
	if oerr != nil {
		fmt.Fprintln(stderr, "disttrace:", oerr)
		return 1
	}
	defer obsFin(stdout)

	var g *graph.NodeGraph
	switch *fixture {
	case "":
		rng := rand.New(rand.NewPCG(*seed, 0))
		g = graph.RandomBiconnected(*n, *p, rng)
		g.RandomizeCosts(1, 10, rng)
	case "fig2":
		g = graph.Figure2()
	case "fig4":
		g = graph.Figure4()
	default:
		fmt.Fprintln(stderr, "disttrace: unknown fixture "+*fixture)
		return 2
	}

	behaviors := make([]dist.Behavior, g.N())
	if *adversary != "" {
		planted, err := ParseAdversaries(*adversary)
		if err != nil {
			fmt.Fprintln(stderr, "disttrace:", err)
			return 2
		}
		nodes := make([]int, 0, len(planted))
		for node := range planted {
			nodes = append(nodes, node)
		}
		sort.Ints(nodes)
		for _, node := range nodes {
			if node < 0 || node >= g.N() {
				fmt.Fprintln(stderr, "disttrace: adversary node out of range")
				return 2
			}
			behaviors[node] = planted[node]
		}
	}

	net := dist.NewNetwork(g, 0, behaviors)
	if *delay > 1 {
		net.SetAsync(*delay, *seed)
	}
	plan, err := ParseFaultPlan(*loss, *dup, *burst, *crash, *partition, *jitter, *reorder, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "disttrace:", err)
		return 2
	}
	if plan != nil {
		if fail := faultPlanError(net, plan); fail != nil {
			fmt.Fprintln(stderr, "disttrace:", fail)
			return 2
		}
	}
	if *signed {
		net.EnableSigning(auth.NewKeyring(g.N()))
	}
	if *evict > 0 {
		net.EnableEviction(*evict)
	}
	if *roundlog {
		net.SetTrace(stdout)
	}
	fmt.Fprintf(stdout, "network: %d nodes, %d edges, destination 0\n", g.N(), g.M())
	var converged bool
	if *evict > 0 {
		rounds, epochs, ok := net.RunProtocolWithEviction(200*g.N(), 6)
		converged = ok
		fmt.Fprintf(stdout, "epochal protocol (quorum %d): %d rounds over %d epochs\n",
			*evict, rounds, epochs)
	} else {
		s1, s2, ok := net.RunProtocol(200 * g.N())
		converged = ok
		fmt.Fprintf(stdout, "stage 1 (SPT with mutual correction): %d rounds\n", s1)
		fmt.Fprintf(stdout, "stage 2 (price relaxation with trigger verification): %d rounds\n", s2)
	}
	if !converged {
		fmt.Fprintln(stdout, "WARNING: no quiescence before the round cap; states below are not converged")
	}
	if *signed {
		fmt.Fprintf(stdout, "signatures: enabled, %d forged messages dropped\n", net.DroppedForged)
	}
	if plan != nil {
		fmt.Fprintf(stdout, "faults: %s\n", net.FaultStats)
	}
	if *evict > 0 {
		if len(net.EvictionLog) == 0 {
			fmt.Fprintln(stdout, "evictions: none")
		} else {
			for _, e := range net.EvictionLog {
				fmt.Fprintf(stdout, "evicted node %d at round %d (accusers %v)\n",
					e.Offender, net.EvictionRound(e.Offender), e.Accusers)
			}
		}
	}
	fmt.Fprintln(stdout)
	for i, st := range net.States() {
		if i == 0 {
			continue
		}
		if net.Evicted(i) {
			fmt.Fprintf(stdout, "node %-3d EVICTED\n", i)
			continue
		}
		fmt.Fprintf(stdout, "node %-3d D=%-8.4g FH=%-3d path=%v\n", i, st.D, st.FH, st.Path)
		var ks []int
		for k := range st.Prices {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		for _, k := range ks {
			fmt.Fprintf(stdout, "          pays %-3d %.4g\n", k, st.Prices[k])
		}
	}
	if len(net.Log) == 0 {
		fmt.Fprintln(stdout, "\nno accusations: every node followed the protocol")
	} else {
		fmt.Fprintln(stdout, "\naccusations:")
		for _, a := range net.Log {
			fmt.Fprintln(stdout, "  "+a.String())
		}
	}
	return 0
}

// ParseAdversaries parses a comma-separated list of adversary specs
// (see ParseAdversary) into a behavior map keyed by node id. The
// collude spec is the one entry a single-node parse cannot express —
// it plants two behaviors sharing state out of band:
//
//	collude:LEADER:PARTNER:FACTOR
//
// where LEADER underpays by FACTOR and PARTNER shields it.
func ParseAdversaries(spec string) (map[int]dist.Behavior, error) {
	out := map[int]dist.Behavior{}
	place := func(node int, b dist.Behavior) error {
		if _, dup := out[node]; dup {
			return fmt.Errorf("two adversaries planted at node %d", node)
		}
		out[node] = b
		return nil
	}
	for _, one := range strings.Split(spec, ",") {
		parts := strings.Split(one, ":")
		if parts[0] == "collude" {
			if len(parts) != 4 {
				return nil, fmt.Errorf("collude needs collude:LEADER:PARTNER:FACTOR")
			}
			lead, err1 := strconv.Atoi(parts[1])
			part, err2 := strconv.Atoi(parts[2])
			f, err3 := strconv.ParseFloat(parts[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("bad collude spec %q", one)
			}
			if lead == part {
				return nil, fmt.Errorf("collude leader and partner must differ")
			}
			if f <= 0 || f >= 1 {
				return nil, fmt.Errorf("collude factor must be in (0,1)")
			}
			leader, shield := dist.NewColludingPair(lead, part, f)
			if err := place(lead, leader); err != nil {
				return nil, err
			}
			if err := place(part, shield); err != nil {
				return nil, err
			}
			continue
		}
		node, b, err := ParseAdversary(one)
		if err != nil {
			return nil, err
		}
		if err := place(node, b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ParseAdversary parses a single-node disttrace adversary spec:
// hider:NODE:HIDDEN, underpay:NODE:FACTOR, overpay:NODE:FACTOR,
// mute:NODE, impersonate:NODE:VICTIM, equivocate:NODE, replay:NODE,
// tamper:NODE, or drop:NODE:VICTIM[+VICTIM...].
func ParseAdversary(spec string) (int, dist.Behavior, error) {
	parts := strings.Split(spec, ":")
	atoi := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("bad adversary spec %q: %v", spec, err)
		}
		return v, nil
	}
	switch parts[0] {
	case "hider":
		if len(parts) != 3 {
			return 0, nil, fmt.Errorf("hider needs hider:NODE:HIDDEN")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		hidden, err := atoi(parts[2])
		if err != nil {
			return 0, nil, err
		}
		return node, &dist.EdgeHider{Hidden: hidden}, nil
	case "underpay":
		if len(parts) != 3 {
			return 0, nil, fmt.Errorf("underpay needs underpay:NODE:FACTOR")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		f, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || f <= 0 || f >= 1 {
			return 0, nil, fmt.Errorf("underpay factor must be in (0,1)")
		}
		return node, &dist.Underpayer{Factor: f}, nil
	case "mute":
		if len(parts) != 2 {
			return 0, nil, fmt.Errorf("mute needs mute:NODE")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		return node, &dist.Mute{}, nil
	case "impersonate":
		if len(parts) != 3 {
			return 0, nil, fmt.Errorf("impersonate needs impersonate:NODE:VICTIM")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		victim, err := atoi(parts[2])
		if err != nil {
			return 0, nil, err
		}
		return node, &dist.Impersonator{Victim: victim}, nil
	case "overpay":
		if len(parts) != 3 {
			return 0, nil, fmt.Errorf("overpay needs overpay:NODE:FACTOR")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		f, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || f <= 1 {
			return 0, nil, fmt.Errorf("overpay factor must be > 1")
		}
		return node, &dist.Overpayer{Factor: f}, nil
	case "equivocate":
		if len(parts) != 2 {
			return 0, nil, fmt.Errorf("equivocate needs equivocate:NODE")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		return node, &dist.Equivocator{}, nil
	case "replay":
		if len(parts) != 2 {
			return 0, nil, fmt.Errorf("replay needs replay:NODE")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		return node, &dist.Replayer{}, nil
	case "tamper":
		if len(parts) != 2 {
			return 0, nil, fmt.Errorf("tamper needs tamper:NODE")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		return node, &dist.Tamperer{}, nil
	case "drop":
		if len(parts) != 3 {
			return 0, nil, fmt.Errorf("drop needs drop:NODE:VICTIM[+VICTIM...]")
		}
		node, err := atoi(parts[1])
		if err != nil {
			return 0, nil, err
		}
		var victims []int
		for _, v := range strings.Split(parts[2], "+") {
			victim, err := atoi(v)
			if err != nil {
				return 0, nil, err
			}
			victims = append(victims, victim)
		}
		return node, &dist.SelectiveDropper{Victims: victims}, nil
	}
	return 0, nil, fmt.Errorf("unknown adversary %q", parts[0])
}

// ParseFaultPlan builds a dist.FaultPlan from the disttrace fault
// flags (-loss, -dup, -burst, -crash, -partition, -jitter, -reorder);
// it returns nil when no fault flag is set. The burst spec is
// PGB:PBG:LOSSGOOD:LOSSBAD; the crash spec is a comma-separated list
// of NODE:AT:RECOVER events with RECOVER = -1 meaning the node never
// comes back; the partition spec is a comma-separated list of
// AT:HEAL:V1+V2+... events naming one side of the cut.
func ParseFaultPlan(loss, dup float64, burst, crash, partition string,
	jitter int, reorder bool, seed uint64) (*dist.FaultPlan, error) {
	if loss == 0 && dup == 0 && burst == "" && crash == "" &&
		partition == "" && jitter == 0 && !reorder {
		return nil, nil
	}
	plan := &dist.FaultPlan{Seed: seed, Loss: loss, Dup: dup,
		Jitter: jitter, Reorder: reorder}
	if burst != "" {
		parts := strings.Split(burst, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad -burst %q: want PGB:PBG:LOSSGOOD:LOSSBAD", burst)
		}
		var vals [4]float64
		for i, s := range parts {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -burst %q: %v", burst, err)
			}
			vals[i] = v
		}
		plan.Burst = &dist.GilbertElliott{
			PGoodBad: vals[0], PBadGood: vals[1], LossGood: vals[2], LossBad: vals[3],
		}
	}
	if crash != "" {
		for _, spec := range strings.Split(crash, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("bad -crash event %q: want NODE:AT:RECOVER", spec)
			}
			var nums [3]int
			for i, s := range parts {
				v, err := strconv.Atoi(s)
				if err != nil {
					return nil, fmt.Errorf("bad -crash event %q: %v", spec, err)
				}
				nums[i] = v
			}
			plan.Crashes = append(plan.Crashes, dist.CrashEvent{
				Node: nums[0], At: nums[1], Recover: nums[2],
			})
		}
	}
	if partition != "" {
		for _, spec := range strings.Split(partition, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("bad -partition event %q: want AT:HEAL:V1+V2+...", spec)
			}
			at, err1 := strconv.Atoi(parts[0])
			heal, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad -partition event %q", spec)
			}
			var side []int
			for _, s := range strings.Split(parts[2], "+") {
				v, err := strconv.Atoi(s)
				if err != nil {
					return nil, fmt.Errorf("bad -partition side node %q: %v", s, err)
				}
				side = append(side, v)
			}
			plan.Partitions = append(plan.Partitions, dist.PartitionEvent{
				At: at, Heal: heal, Side: side,
			})
		}
	}
	return plan, nil
}

// faultPlanError installs plan on net, converting the validation
// panic dist.SetFaults raises on a malformed plan into an error the
// CLI can report with a non-zero exit instead of a crash.
func faultPlanError(net *dist.Network, plan *dist.FaultPlan) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	net.SetFaults(plan)
	return nil
}

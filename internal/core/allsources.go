package core

import (
	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

// allQuotesDelta is the shared-frontier all-sources path behind
// AllQuotes: instead of fanning n independent Dijkstras across
// goroutines, it runs one delta-stepping engine whose *internal*
// phases are parallel, holding exactly one tree's working set in
// cache at a time. Two structural savings pay for the lost per-source
// parallelism on big graphs:
//
//   - The destination-rooted tree (the fast engine's R(v) = dist(v,t)
//     table, identical for every source) is computed once and shared,
//     where the fan-out path recomputes it per source ("dijkstra
//     once, test many roots").
//   - Per-source working sets stop competing for LLC: the fan-out
//     path keeps GOMAXPROCS n-sized tree arrays hot at once, which is
//     exactly what stops scaling at n ≥ 10^5.
//
// It reports ok=false when the graph's cost regime rules
// delta-stepping out (any zero or non-finite relay cost — see the
// determinism argument in sp/deltastep.go); the caller then uses the
// fan-out path. Output is bit-identical to the fan-out path quote for
// quote: the delta trees equal the workspace trees entry for entry,
// and the payment assembly below mirrors QuoteInto line for line.
func (sv *Solver) allQuotesDelta(g *graph.NodeGraph, dest int, engine Engine) ([]*Quote, bool) {
	sv.dsMu.Lock()
	defer sv.dsMu.Unlock()
	n := g.N()
	if sv.ds == nil {
		sv.ds = sp.NewDeltaStepper(n, sv.deltaWorkers)
	}
	ds := sv.ds
	if !ds.Prepare(g) {
		return nil, false
	}
	out := make([]*Quote, n)
	w := sv.acquire(n)
	defer sv.release(w)

	// Destination-rooted distances, shared by every source's fast
	// engine. Copied out because the next Run reuses the tree arrays.
	treeT := ds.Run(g, dest, nil)
	if cap(w.rShared) < n {
		w.rShared = make([]float64, n)
	}
	rT := w.rShared[:n]
	copy(rT, treeT.Dist)

	for s := 0; s < n; s++ {
		if s == dest {
			continue
		}
		treeS := ds.Run(g, s, nil)
		if !treeS.Reachable(dest) {
			continue
		}
		w.pathBuf = treeS.PathInto(dest, w.pathBuf)
		path := w.pathBuf
		cost := treeS.Dist[dest]
		switch engine {
		case EngineFast:
			w.fastReplacement(g, s, dest, treeS, rT, path)
		case EngineNaive:
			// Per-relay counterfactual runs go through the stepper
			// too; they overwrite treeS, which is why the path was
			// copied into w.pathBuf first.
			for i := 1; i+1 < len(path); i++ {
				k := path[i]
				w.banned[k] = true
				tr := ds.Run(g, s, w.banned)
				w.repl[k] = tr.Dist[dest]
				w.banned[k] = false
			}
		}
		q := &Quote{Source: s, Target: dest, Cost: cost}
		q.Path = append([]int(nil), path...)
		q.initPayments(len(path))
		for i := 1; i+1 < len(path); i++ {
			k := path[i]
			q.Payments[k] = w.repl[k] - cost + g.Cost(k)
		}
		out[s] = q
		obsQuotes.Inc()
	}
	return out, true
}

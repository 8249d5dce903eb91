package netsim

// The sparse-only waterfill reference: every round lists the flows crossing
// an over-capacity element, scales each by the worst ratio on its path, and
// recomputes the load of every element those flows cross, so all loads are
// exact after every round. It runs serially; element-major reductions make
// the worker count irrelevant to the bits. TestWaterfillOracle solves the
// same windows with it and with the solver's waterfill and requires
// identical throttles, loads and Stats.

// SolveFlowSparseReference is SolveFlow with the sparse-only reference
// waterfill.
func SolveFlowSparseReference(n *Network, opts FlowOptions) error {
	return n.solveFlow(opts, (*flowSolver).waterfillSparseReference)
}

// FlowSolution returns copies of the last solve's per-flow throttles and
// per-element loads.
func FlowSolution(n *Network) (x, load []float64) {
	fl := n.flowSolver()
	x = make([]float64, len(fl.flows))
	for i := range fl.flows {
		x[i] = fl.flows[i].x
	}
	return x, append([]float64(nil), fl.load...)
}

func (fl *flowSolver) waterfillSparseReference() {
	// float64() keeps the product unfused, as the solver's d vector does.
	elemLoad := func(el int32) float64 {
		s := 0.0
		for k := fl.elemOff[el]; k < fl.elemOff[el+1]; k++ {
			f := &fl.flows[fl.elemFlow[k]]
			s += float64(f.rate * f.x)
		}
		return s
	}
	for el := range fl.load {
		fl.load[el] = elemLoad(int32(el))
	}
	flowSeen := make([]int, len(fl.flows))
	elemSeen := make([]int, len(fl.load))
	var over []int32
	for el := range fl.load {
		if fl.load[el] > fl.cap[el] {
			over = append(over, int32(el))
		}
	}
	for iter := 1; len(over) > 0 && iter <= flowWaterfillIters; iter++ {
		fl.stats.WaterfillIters++
		var cand []int32
		for _, el := range over {
			for k := fl.elemOff[el]; k < fl.elemOff[el+1]; k++ {
				if fi := fl.elemFlow[k]; flowSeen[fi] != iter {
					flowSeen[fi] = iter
					cand = append(cand, fi)
				}
			}
		}
		for _, fi := range cand {
			f := &fl.flows[fi]
			e := &fl.cache.entries[f.entry]
			scale := 1.0
			for _, el := range fl.cache.path[e.off : e.off+e.n] {
				if fl.load[el] > fl.cap[el] {
					if s := fl.cap[el] / fl.load[el]; s < scale {
						scale = s
					}
				}
			}
			if scale < 1 {
				f.x *= scale
			}
		}
		var dirty []int32
		for _, fi := range cand {
			e := &fl.cache.entries[fl.flows[fi].entry]
			for _, el := range fl.cache.path[e.off : e.off+e.n] {
				if elemSeen[el] != iter {
					elemSeen[el] = iter
					dirty = append(dirty, el)
				}
			}
		}
		for _, el := range dirty {
			fl.load[el] = elemLoad(el)
		}
		w := 0
		for _, el := range over {
			if fl.load[el] > fl.cap[el] {
				over[w] = el
				w++
			}
		}
		over = over[:w]
	}
	// The statistics fold reads the delivered-rate vector.
	fl.d = fl.d[:0]
	for i := range fl.flows {
		fl.d = append(fl.d, float64(fl.flows[i].rate*fl.flows[i].x))
	}
}

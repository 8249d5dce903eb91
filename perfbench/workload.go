package main

import (
	"fmt"
	"strconv"

	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// A workload is a fixed set of systems, each measured over one or more
// rate series, under one set of window parameters. Its seed becomes every
// system's Config.Seed: the network RNG streams, the cycle engines'
// injection draws and the flow engine's demand sampling all derive from it.
type workload struct {
	systems []system
	sim     core.SimParams
	// minRounds is the fewest rounds a timed run makes, however short its
	// --seconds; setupsPerRound is how often a round builds every system
	// and measures its cold points (see runUntraced).
	minRounds, setupsPerRound int
}

type system struct {
	cfg    core.Config
	series []series
}

type series struct {
	pattern string
	rates   []float64
}

// point identifies one load point of a workload's grid.
type point struct {
	sys, series, rate int
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"cycle-radix16", "flow-radix32", "flow-churn"}

// churnSpec is flow-churn's link death/repair timeline: a fixed, seeded
// fraction of links dies inside the window and is repaired 150 cycles
// later, stranded packets retried at the source. Every point solves four
// segments, each after a routing swap that discards the trace cache. The
// timeline stays fixed across benchmark seeds so every seed runs the same
// events.
const churnSpec = "links=0.00025,seed=7,start=100,end=500,repair=150,policy=retry"

// newWorkload returns the named workload at full size, or at tiny size
// (small systems, short windows) for the benchmark's own tests.
func newWorkload(name string, seed uint64, tiny bool) (workload, error) {
	sldf16, df16, sldf32 := core.Radix16SLDF(), core.Radix16DF(), core.Radix32SLDF()
	if tiny {
		small := topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 2, H: 2}
		sldf16, sldf32 = small, small
		df16 = topology.DragonflyParams{P: 2, A: 3, H: 2}
	}
	uniform := func(rates ...float64) series { return series{pattern: "uniform", rates: rates} }
	w := workload{minRounds: 3}
	switch name {
	case "cycle-radix16":
		w.sim = core.SimParams{Warmup: 100, Measure: 200, ExtraDrain: 100, PacketSize: 4}
		// A build takes tens of milliseconds: repeat it for a steady quantile.
		w.setupsPerRound = 6
		grid := uniform(0.1, 0.3, 0.5, 0.7)
		w.systems = []system{
			{cfg: core.Config{Kind: core.SwitchDragonfly, DF: df16, Workers: 1}, series: []series{grid}},
			{cfg: core.Config{Kind: core.SwitchlessDragonfly, SLDF: sldf16, Workers: 1}, series: []series{grid}},
		}
	case "flow-radix32":
		wc := []float64{0.002, 0.005, 0.01, 0.02}
		if tiny {
			// The 40-chip test system's worst-case knee is near 0.12.
			wc = []float64{0.02, 0.05, 0.1, 0.2}
		}
		w.sim = core.QuickSim()
		w.sim.Engine = netsim.EngineFlow
		w.sim.FlowWorkers = 2
		w.setupsPerRound = 2
		w.systems = []system{{
			cfg: core.Config{Kind: core.SwitchlessDragonfly, SLDF: sldf32},
			series: []series{
				uniform(0.1, 0.3, 0.5, 0.7),
				// Minimal worst-case traffic saturates near 0.008 on the
				// radix-32 system: the grid straddles that knee.
				{pattern: "worst-case", rates: wc},
			},
		}}
	case "flow-churn":
		w.sim = core.QuickSim()
		w.sim.Engine = netsim.EngineFlow
		w.sim.FlowWorkers = 1
		w.setupsPerRound = 3
		spec := churnSpec
		if tiny {
			spec = "links=0.05,seed=7,start=100,end=500,repair=150,policy=retry"
		}
		churn, err := topology.ParseChurn(spec)
		if err != nil {
			return w, err
		}
		w.systems = []system{{
			cfg:    core.Config{Kind: core.SwitchlessDragonfly, SLDF: sldf16, Churn: churn},
			series: []series{uniform(0.1, 0.3, 0.5, 0.7)},
		}}
	default:
		return w, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if tiny {
		if w.sim.Engine != netsim.EngineFlow {
			w.sim.Warmup, w.sim.Measure, w.sim.ExtraDrain = 50, 100, 50
		}
		w.minRounds, w.setupsPerRound = 2, 1
	}
	for i := range w.systems {
		w.systems[i].cfg.Seed = seed
	}
	return w, nil
}

// grid lists the workload's points in measurement order: system by system,
// series by series, rate by rate.
func (w workload) grid() []point {
	var pts []point
	for si, s := range w.systems {
		for ri, sr := range s.series {
			for k := range sr.rates {
				pts = append(pts, point{si, ri, k})
			}
		}
	}
	return pts
}

func (w workload) rate(p point) float64 { return w.systems[p.sys].series[p.series].rates[p.rate] }

// key names a point stably across runs, e.g. "sw-less/uniform/0.3".
func (w workload) key(p point) string {
	s := w.systems[p.sys]
	return s.cfg.Label() + "/" + s.series[p.series].pattern + "/" +
		strconv.FormatFloat(w.rate(p), 'g', -1, 64)
}

// coldPoints are the first point of every system: the first measurement
// after Build, with every cache still empty.
func (w workload) coldPoints() []point {
	pts := make([]point, len(w.systems))
	for i := range w.systems {
		pts[i] = point{sys: i}
	}
	return pts
}

package netsim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sldf/internal/core"
	"sldf/internal/engine"
	"sldf/internal/netsim"
)

// oracleDemands samples a pattern the way the core layer does:
// FlowSampleCount destinations per chip, each with an equal rate share,
// drawn from the chip's own demand stream.
func oracleDemands(t *testing.T, sys *core.System, pattern string, rate float64) []netsim.FlowDemand {
	t.Helper()
	pat, err := sys.PatternFor(pattern)
	if err != nil {
		t.Fatal(err)
	}
	samples := netsim.FlowSampleCount(sys.Chips)
	var demands []netsim.FlowDemand
	var rng engine.RNG
	for c := int32(0); int(c) < sys.Chips; c++ {
		if len(sys.Net.ChipNodes[c]) == 0 {
			continue
		}
		rng = netsim.FlowDemandRNG(sys.Cfg.Seed, c)
		for i := 0; i < samples; i++ {
			if dst := pat.Dest(c, &rng); dst >= 0 {
				demands = append(demands, netsim.FlowDemand{Src: c, Dst: dst, Rate: rate / float64(samples)})
			}
		}
	}
	return demands
}

// sameBits reports whether a and b hold bitwise-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWaterfillOracle checks the solver's dense/sparse waterfill against the
// sparse-only reference on the full radix-16 switch-less system: worst-case
// traffic past its knee (where every round is dense) and uniform traffic
// across the busy range (dense first rounds, sparse tails), serial and with
// 3 workers. Throttles, loads, full Stats and the round count must match
// bit for bit, and both round shapes must have run.
func TestWaterfillOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the 1312-chip system 20 times")
	}
	cfg := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1, Workers: 1}
	sys, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Net.SetEngine(netsim.EngineFlow)
	sp := core.QuickSim()

	cases := []struct {
		pattern string
		rate    float64
	}{
		// The worst-case knee is near 0.031.
		{"worst-case", 0.035},
		{"uniform", 0.3}, {"uniform", 0.5}, {"uniform", 0.6}, {"uniform", 0.7},
	}
	var dense, sparse int64
	for _, workers := range []int{1, 3} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s@%g/w%d", c.pattern, c.rate, workers), func(t *testing.T) {
				demands := oracleDemands(t, sys, c.pattern, c.rate)
				opts := netsim.FlowOptions{
					Demands:    func() []netsim.FlowDemand { return demands },
					PacketSize: sp.PacketSize, Warmup: sp.Warmup, Measure: sp.Measure,
					Workers: workers,
				}
				solve := func(solver func(*netsim.Network, netsim.FlowOptions) error) (netsim.Stats, []float64, []float64, netsim.FlowStats) {
					before := sys.Net.FlowSolverStats()
					if err := solver(sys.Net, opts); err != nil {
						t.Fatal(err)
					}
					st := sys.Net.Snapshot()
					x, load := netsim.FlowSolution(sys.Net)
					after := sys.Net.FlowSolverStats()
					sys.Reset()
					return st, x, load, netsim.FlowStats{
						WaterfillIters: after.WaterfillIters - before.WaterfillIters,
						DenseRounds:    after.DenseRounds - before.DenseRounds,
					}
				}
				refSt, refX, refLoad, refFS := solve(netsim.SolveFlowSparseReference)
				st, x, load, fs := solve((*netsim.Network).SolveFlow)
				if !sameBits(refX, x) {
					t.Error("throttles differ from the sparse reference")
				}
				if !sameBits(refLoad, load) {
					t.Error("element loads differ from the sparse reference")
				}
				if !reflect.DeepEqual(refSt, st) {
					t.Errorf("Stats differ from the sparse reference\nref: %+v\ngot: %+v", refSt, st)
				}
				if fs.WaterfillIters != refFS.WaterfillIters {
					t.Errorf("%d waterfill rounds, reference ran %d", fs.WaterfillIters, refFS.WaterfillIters)
				}
				if c.pattern == "worst-case" && fs.DenseRounds == 0 {
					t.Error("a saturated worst-case solve ran no dense round")
				}
				t.Logf("%d rounds, %d dense; throughput %.4f", fs.WaterfillIters, fs.DenseRounds, st.Throughput())
				dense += fs.DenseRounds
				sparse += fs.WaterfillIters - fs.DenseRounds
			})
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("%d dense and %d sparse rounds ran; the oracle must cover both shapes", dense, sparse)
	}
}

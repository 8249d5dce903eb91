package core

import (
	"errors"
	"reflect"
	"testing"

	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// measureFlowSeries measures a rate grid on ONE built system (Reset between
// points — the configuration every sweep worker runs), returning the full
// per-point results and the network's cumulative solver statistics. This is
// the warm path: the second and later points should be served from the
// route-trace cache.
func measureFlowSeries(t *testing.T, cfg Config, pattern string, rates []float64, sp SimParams) ([]Result, netsim.FlowStats) {
	t.Helper()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor(pattern)
	if err != nil {
		t.Fatalf("pattern: %v", err)
	}
	sp.Engine = netsim.EngineFlow
	out := make([]Result, 0, len(rates))
	for _, rate := range rates {
		res, err := sys.MeasureLoad(pat, rate, sp)
		if err != nil {
			t.Fatalf("measure @%.2f: %v", rate, err)
		}
		out = append(out, res)
		sys.Reset()
	}
	return out, sys.Net.FlowSolverStats()
}

// flowEquivalenceKinds is the property-test grid: all four system kinds plus
// a churn-timeline variant (mid-window link deaths segment every solve).
func flowEquivalenceKinds() []struct {
	name string
	cfg  Config
} {
	kinds := collectiveKinds()
	churn := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5, Workers: 1}
	churn.Churn = topology.FaultTimeline{
		Armed: true, Seed: 3, LinkChurn: 0.1, Start: 150, End: 700,
		Policy: netsim.DropInFlight,
	}
	return append(kinds, struct {
		name string
		cfg  Config
	}{"mesh-churn", churn})
}

// TestFlowCacheEquivalence is the tentpole's correctness gate: on every
// system kind (switch, mesh, sw-based, sw-less, and a live-churn timeline),
// a warm-cache sweep and a parallel warm sweep must be bitwise identical —
// full Stats surface, not summaries — to a forced-cold sweep that re-traces
// every route at every point.
func TestFlowCacheEquivalence(t *testing.T) {
	rates := []float64{0.2, 0.4, 0.6}
	for _, k := range flowEquivalenceKinds() {
		t.Run(k.name, func(t *testing.T) {
			sp := QuickSim()

			cold := sp
			cold.FlowCold = true
			want, _ := measureFlowSeries(t, k.cfg, "uniform", rates, cold)

			warm, ws := measureFlowSeries(t, k.cfg, "uniform", rates, sp)
			// Churn-armed systems rebuild routing (SetRoute) at every event
			// batch and on Reset, discarding the cache each time by design —
			// only churn-free sweeps are required to amortize.
			if ws.CacheHits == 0 && k.cfg.Churn.Empty() {
				t.Fatal("warm sweep never hit the route-trace cache")
			}

			par := sp
			par.FlowWorkers = 4
			parallel, _ := measureFlowSeries(t, k.cfg, "uniform", rates, par)

			for i, rate := range rates {
				if !reflect.DeepEqual(want[i], warm[i]) {
					t.Errorf("@%.2f: warm-cache result diverged from cold\ncold: %+v\nwarm: %+v",
						rate, want[i].Stats, warm[i].Stats)
				}
				if !reflect.DeepEqual(want[i], parallel[i]) {
					t.Errorf("@%.2f: parallel result diverged from cold serial\ncold:     %+v\nparallel: %+v",
						rate, want[i].Stats, parallel[i].Stats)
				}
			}
		})
	}
}

// TestFlowWarmSweepCacheEffect pins that the warm path actually amortizes:
// on a churn-free system, points after the first re-trace nothing — every
// route of the whole sweep is traced during point one.
func TestFlowWarmSweepCacheEffect(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7, Workers: 1}
	cfg.SLDF.G = 1
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sp := QuickSim()
	sp.Engine = netsim.EngineFlow
	var tracesAfterFirst int64
	for i, rate := range []float64{0.2, 0.4, 0.6} {
		if _, err := sys.MeasureLoad(pat, rate, sp); err != nil {
			t.Fatalf("measure @%.2f: %v", rate, err)
		}
		sys.Reset()
		fs := sys.Net.FlowSolverStats()
		if i == 0 {
			tracesAfterFirst = fs.Traces
			if tracesAfterFirst == 0 {
				t.Fatal("first point traced nothing")
			}
		} else if fs.Traces != tracesAfterFirst {
			t.Fatalf("point %d re-traced: %d traces total, %d after point one",
				i+1, fs.Traces, tracesAfterFirst)
		} else if fs.CacheHits == 0 {
			t.Fatalf("point %d served no flows from the cache", i+1)
		}
	}
}

// TestFlowThroughputMonotone is the property the retired throttle seeding
// broke: below saturation, flow throughput never falls as the offered rate
// rises, on all four system kinds, with warm and cold route caches. The
// grid must also actually climb, so a solver that pins every point at the
// first point's throughput fails too.
func TestFlowThroughputMonotone(t *testing.T) {
	rates := RateGrid(0.05, 0.3, 0.05)
	for _, k := range collectiveKinds() {
		for _, cold := range []bool{false, true} {
			name := k.name + "/warm"
			if cold {
				name = k.name + "/cold"
			}
			t.Run(name, func(t *testing.T) {
				sp := QuickSim()
				sp.FlowCold = cold
				res, _ := measureFlowSeries(t, k.cfg, "uniform", rates, sp)
				for i := 1; i < len(res); i++ {
					if prev, cur := res[i-1].Point.Throughput, res[i].Point.Throughput; cur < prev {
						t.Errorf("throughput fell from %.4f @%.2f to %.4f @%.2f",
							prev, rates[i-1], cur, rates[i])
					}
				}
				first, last := res[0].Point.Throughput, res[len(res)-1].Point.Throughput
				if rise, offered := last-first, rates[len(rates)-1]-rates[0]; rise < offered/2 {
					t.Errorf("throughput rose only %.4f over an offered-rate rise of %.2f", rise, offered)
				}
			})
		}
	}
}

// TestFlowSeedThrottlesRetired pins the retired warm start: setting it
// fails the flow measurement with a typed error instead of returning a
// plausible wrong number, and no flow knob partitions the point cache.
func TestFlowSeedThrottlesRetired(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7, Workers: 1}
	cfg.SLDF.G = 1
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sp := QuickSim()
	sp.Engine = netsim.EngineFlow
	sp.FlowSeedThrottles = true
	_, err = sys.MeasureLoad(pat, 0.3, sp)
	if !errors.Is(err, netsim.ErrSeedThrottlesRetired) || !errors.Is(err, netsim.ErrFlowEngine) {
		t.Fatalf("seeded flow measurement returned %v, want ErrSeedThrottlesRetired wrapping ErrFlowEngine", err)
	}
	plain := sp
	plain.FlowSeedThrottles = false
	knobs := plain
	knobs.FlowWorkers, knobs.FlowCold, knobs.FlowSeedThrottles = 8, true, true
	if pointKey(cfg, "uniform", 0.4, knobs) != pointKey(cfg, "uniform", 0.4, plain) {
		t.Fatal("flow execution knobs changed the point cache key")
	}
}

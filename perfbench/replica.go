package main

import (
	"fmt"

	"sldf/internal/core"
	"sldf/internal/energy"
	"sldf/internal/engine"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
	"sldf/internal/traffic"
)

// traced is a system built and measured through the same public calls
// core.Build, System.MeasureLoad and System.Reset make, with a span around
// each call into another module. It covers the configurations the
// workloads use: fault-free switch-based and switch-less Dragonflies, and
// switch-less Dragonflies with a churn timeline. The embedded core.System
// carries the sizes PatternFor reads; its own measurement methods are
// never called.
type traced struct {
	*core.System
	tr *tracer

	// Churn-armed systems only: chip liveness refreshed after every event
	// batch, the build-time routing for Reset, and whether a batch swapped
	// the routing since.
	alive       []bool
	installBase func()
	routeDirty  bool

	rateGen traffic.Rate
	demands []netsim.FlowDemand
}

// buildTraced repeats core.Build: topology (with Builder.Finalize), then
// routing construction and install, then, for churn, the timeline's arming.
func buildTraced(tr *tracer, cfg core.Config) (*traced, error) {
	if !cfg.Faults.Empty() || cfg.Scheme == routing.ReducedVC || cfg.Mode == routing.ValiantLower {
		return nil, fmt.Errorf("traced build: unsupported configuration %s", cfg.Label())
	}
	id := tr.begin("core.build")
	defer tr.end(id)
	opts := netsim.NetworkOptions{Seed: cfg.Seed, Workers: cfg.Workers, WatchdogCycles: cfg.WatchdogCycles}
	width := max(cfg.IntraWidth, 1)
	churn := !cfg.Churn.Empty()
	t := &traced{System: &core.System{Cfg: cfg, Label: cfg.Label()}, tr: tr}

	switch cfg.Kind {
	case core.SwitchDragonfly:
		if churn {
			return nil, fmt.Errorf("traced build: churn on %s is unsupported", cfg.Label())
		}
		sp := tr.begin("topology.build")
		df, err := topology.BuildDragonfly(cfg.DF, topology.DefaultLinkClasses(routing.DragonflyVCCount(cfg.Mode), width), opts)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("routing.build")
		route, err := routing.DragonflyRoute(df, cfg.Mode)
		if err == nil {
			df.Net.SetRoute(route)
		}
		tr.end(sp)
		if err != nil {
			df.Net.Close()
			return nil, err
		}
		t.Net, t.DF, t.Groups, t.NodesPerChip = df.Net, df, cfg.DF.Groups(), 1
		t.Chips = t.Net.NumChips()

	case core.SwitchlessDragonfly:
		vcs := routing.SLDFVCCount(cfg.Scheme, cfg.Mode)
		if churn {
			vcs = core.FaultVCs
		}
		sp := tr.begin("topology.build")
		s, err := topology.BuildSLDF(cfg.SLDF, topology.DefaultLinkClasses(vcs, width), opts)
		if err == nil && churn {
			// core applies the (empty) build-time fault set to every
			// fault-grade build.
			routers, links := cfg.Faults.Resolve(s.FaultDomain())
			routers = append(routers, s.FaultClosure(routers, links)...)
			_, err = s.Net.ApplyFaultsTolerant(routers, links)
		}
		tr.end(sp)
		if err != nil {
			if s != nil {
				s.Net.Close()
			}
			return nil, err
		}
		t.Net, t.SLDF, t.Groups, t.NodesPerChip = s.Net, s, cfg.SLDF.Groups(), cfg.SLDF.NoCDim*cfg.SLDF.NoCDim
		t.Chips = t.Net.NumChips()
		sp = tr.begin("routing.build")
		if churn {
			var fr *routing.FaultSLDFRouter
			if fr, err = routing.NewFaultSLDFRouter(s, cfg.Scheme, cfg.Mode); err == nil {
				fr.Install(s.Net)
				t.installBase = func() { fr.Install(s.Net) }
			}
		} else {
			var sr *routing.SLDFRouter
			if sr, err = routing.NewSLDFRouter(s, cfg.Scheme, cfg.Mode); err == nil {
				sr.Install(s.Net)
			}
		}
		tr.end(sp)
		if err == nil && churn {
			err = t.armChurn(s)
		}
		if err != nil {
			s.Net.Close()
			return nil, err
		}

	default:
		return nil, fmt.Errorf("traced build: unsupported system kind %v", cfg.Kind)
	}
	t.ChipsPerGroup = t.Chips / t.Groups
	return t, nil
}

// armChurn installs the timeline with the apply hook core installs: rebuild
// fault-aware routing, retire packets it cannot carry, refresh liveness.
func (t *traced) armChurn(s *topology.SLDF) error {
	t.alive = make([]bool, t.Chips)
	t.refreshAlive()
	events := t.Cfg.Churn.Resolve(s.FaultDomain())
	scheme, mode := t.Cfg.Scheme, t.Cfg.Mode
	return t.Net.ScheduleChurn(events, t.Cfg.Churn.Policy, func(*netsim.Network) error {
		id := t.tr.begin("core.reroute")
		defer t.tr.end(id)
		t.routeDirty = true
		fr, err := routing.NewFaultSLDFRouter(s, scheme, mode)
		if err != nil {
			return err
		}
		fr.Install(s.Net)
		s.Net.SanitizeInFlight(fr.Sanitize())
		t.refreshAlive()
		return nil
	})
}

func (t *traced) refreshAlive() {
	for c := range t.alive {
		t.alive[c] = t.Net.ChipAlive(int32(c))
	}
}

// reset repeats System.Reset.
func (t *traced) reset() {
	id := t.tr.begin("netsim.reset")
	t.Net.Reset()
	if t.Net.ChurnArmed() {
		if t.routeDirty {
			t.installBase()
			t.routeDirty = false
		}
		t.refreshAlive()
	}
	t.tr.end(id)
}

// measureLoad repeats System.MeasureLoad.
func (t *traced) measureLoad(pat traffic.Pattern, rate float64, sp core.SimParams) (core.Result, error) {
	id := t.tr.begin("core.measure")
	defer t.tr.end(id)
	t.Net.SetEngine(sp.Engine)
	if sp.Engine == netsim.EngineFlow {
		return t.measureFlow(pat, rate, sp)
	}
	t.rateGen.Init(traffic.FilterDead(pat, t.alive), rate, sp.PacketSize, t.NodesPerChip)
	t.Net.SetTraffic(&t.rateGen, sp.PacketSize, netsim.DstSameIndex)
	if err := t.run(sp.Warmup); err != nil {
		return core.Result{}, fmt.Errorf("%s warmup: %w", t.Label, err)
	}
	t.Net.StartMeasurement()
	if err := t.run(sp.Measure); err != nil {
		return core.Result{}, fmt.Errorf("%s measure: %w", t.Label, err)
	}
	t.Net.StopMeasurement()
	if err := t.run(sp.ExtraDrain); err != nil {
		return core.Result{}, fmt.Errorf("%s drain: %w", t.Label, err)
	}
	return t.result(rate), nil
}

func (t *traced) run(cycles int64) error {
	id := t.tr.begin("netsim.run")
	defer t.tr.end(id)
	return t.Net.Run(cycles)
}

// measureFlow repeats the flow engine's measurement: one SolveFlow, whose
// trace, waterfill and histogram phases become derived child spans.
func (t *traced) measureFlow(pat traffic.Pattern, rate float64, sp core.SimParams) (core.Result, error) {
	before := t.Net.FlowSolverStats()
	id := t.tr.begin("netsim.run")
	err := t.Net.SolveFlow(netsim.FlowOptions{
		Demands:       func() []netsim.FlowDemand { return t.flowDemands(pat, rate) },
		PacketSize:    sp.PacketSize,
		Warmup:        sp.Warmup,
		Measure:       sp.Measure,
		Workers:       sp.FlowWorkers,
		Cold:          sp.FlowCold,
		SeedThrottles: sp.FlowSeedThrottles,
	})
	after := t.Net.FlowSolverStats()
	t.tr.derived("flow.trace", after.TraceWall-before.TraceWall)
	t.tr.derived("flow.waterfill", after.WaterfillWall-before.WaterfillWall)
	t.tr.derived("flow.hist", after.HistWall-before.HistWall)
	t.tr.end(id)
	if err != nil {
		return core.Result{}, fmt.Errorf("%s flow solve: %w", t.Label, err)
	}
	return t.result(rate), nil
}

// flowDemands repeats core's demand sampling: FlowSampleCount destinations
// per chip with a terminal, drawn from the chip's own RNG stream.
func (t *traced) flowDemands(pat traffic.Pattern, rate float64) []netsim.FlowDemand {
	id := t.tr.begin("core.demands")
	defer t.tr.end(id)
	fpat := traffic.FilterDead(pat, t.alive)
	samples := netsim.FlowSampleCount(t.Chips)
	per := rate / float64(samples)
	if cap(t.demands) < t.Chips*samples {
		t.demands = make([]netsim.FlowDemand, 0, t.Chips*samples)
	}
	d := t.demands[:0]
	var rng engine.RNG
	for c := int32(0); int(c) < t.Chips; c++ {
		if len(t.Net.ChipNodes[c]) == 0 {
			continue
		}
		rng = netsim.FlowDemandRNG(t.Cfg.Seed, c)
		for i := 0; i < samples; i++ {
			if dst := fpat.Dest(c, &rng); dst >= 0 {
				d = append(d, netsim.FlowDemand{Src: c, Dst: dst, Rate: per})
			}
		}
	}
	t.demands = d
	return d
}

// result reads the window's statistics and assembles the Result exactly
// as MeasureLoad does.
func (t *traced) result(rate float64) core.Result {
	id := t.tr.begin("netsim.snapshot")
	st := t.Net.Snapshot()
	byClass, hottest := t.Net.LinkUtilization(8)
	t.tr.end(id)
	return core.Result{
		Rate: rate,
		Point: metrics.Point{
			Rate:       rate,
			Latency:    st.MeanLatency(),
			P50:        float64(st.Latency.Quantile(0.5)),
			P99:        float64(st.Latency.Quantile(0.99)),
			Throughput: st.Throughput(),
			Dropped:    st.DroppedPkts,
			Retried:    st.RetriedPkts,
			Refused:    st.RefusedPkts,
		},
		Stats:       st,
		Energy:      energy.FromStats(st, energy.TableII()),
		Utilization: byClass,
		Hottest:     hottest,
	}
}

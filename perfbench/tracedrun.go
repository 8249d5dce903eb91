package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/core"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
)

// referencePass builds every system through core.Build and measures the
// grid once through System.MeasureLoad, recording every point's digest.
// It returns the pass's wall seconds, which the traced pass is compared
// with.
func referencePass(w workload, chk *checker) (float64, error) {
	t0 := time.Now()
	bs, _, err := buildAll(w)
	if err != nil {
		return 0, err
	}
	defer closeAll(bs)
	seen := make([]bool, len(bs))
	for _, p := range w.grid() {
		r, err := measure(w, bs, p, !seen[p.sys])
		seen[p.sys] = true
		chk.result(w.key(p), r, err)
	}
	return time.Since(t0).Seconds(), nil
}

// layerTotals accumulates the traced pass's counters.
type layerTotals struct {
	heapBytes, chips    float64
	allocBytes          float64
	points              int
	routerCycles        float64
	pkts                int64
	flow, coldFlow      netsim.FlowStats
	warmHits, warmTotal int64
	// wallS is the traced pass's set-up plus points, timed with its own
	// clock reads around the two root spans.
	wallS float64
}

// tracedPass repeats the reference pass through the traced replica, with
// spans around every call into a module. Its digests must equal the
// reference pass's.
func tracedPass(w workload, tr *tracer, chk *checker) (layerTotals, error) {
	var lt layerTotals
	var ts []*traced
	defer func() {
		for _, t := range ts {
			t.Close()
		}
	}()
	// The heap is read after a collection on both sides of set-up, with
	// the tracer and checker already allocated, so only the systems count.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := float64(ms.HeapAlloc)

	t0 := time.Now()
	id := tr.begin("bench.setup")
	for _, s := range w.systems {
		t, err := buildTraced(tr, s.cfg)
		if err != nil {
			tr.end(id)
			return lt, err
		}
		ts = append(ts, t)
		lt.chips += float64(t.Chips)
	}
	tr.end(id)
	lt.wallS = time.Since(t0).Seconds()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	lt.heapBytes = float64(ms.HeapAlloc) - heap0

	t0 = time.Now()
	id = tr.begin("bench.points")
	err := tracedPoints(w, tr, chk, ts, &lt)
	tr.end(id)
	lt.wallS += time.Since(t0).Seconds()
	return lt, err
}

// tracedPoints measures the grid on the traced systems, one point span
// per load point.
func tracedPoints(w workload, tr *tracer, chk *checker, ts []*traced, lt *layerTotals) error {
	var ms runtime.MemStats
	seen := make([]bool, len(ts))
	for i, p := range w.grid() {
		t := ts[p.sys]
		sr := w.systems[p.sys].series[p.series]
		pat, err := t.PatternFor(sr.pattern)
		if err != nil {
			return err
		}
		tr.point = i
		pid := tr.begin("bench.point")
		runtime.ReadMemStats(&ms)
		alloc0, flow0 := ms.TotalAlloc, t.Net.FlowSolverStats()
		cold := !seen[p.sys]
		if !cold {
			t.reset()
		}
		seen[p.sys] = true
		r, err := t.measureLoad(pat, w.rate(p), w.sim)
		runtime.ReadMemStats(&ms)
		flow := flowDelta(t.Net.FlowSolverStats(), flow0)
		tr.end(pid)
		tr.point = -1

		key := w.key(p)
		if err != nil {
			chk.attempted++
			chk.fail("traced %s: %v", key, err)
			continue
		}
		chk.same("traced", key, resultDigest(r), chk.full[key])
		lt.points++
		lt.allocBytes += float64(ms.TotalAlloc - alloc0)
		cycles := w.sim.Warmup + w.sim.Measure
		if w.sim.Engine != netsim.EngineFlow {
			cycles += w.sim.ExtraDrain
		}
		lt.routerCycles += float64(len(t.Net.Routers)) * float64(cycles)
		lt.pkts += r.Stats.DeliveredPkts
		lt.flow = flowSum(lt.flow, flow)
		// A point is cold when it is its system's first after Build and
		// warm otherwise, as in cold_point_s. The first point of a later
		// series is warm, though it may trace pairs the earlier series
		// never used.
		if cold {
			lt.coldFlow = flowSum(lt.coldFlow, flow)
		} else {
			lt.warmHits += flow.CacheHits
			lt.warmTotal += flow.CacheHits + flow.Traces
		}
	}
	return nil
}

func flowDelta(a, b netsim.FlowStats) netsim.FlowStats { return flowAdd(a, b, -1) }

func flowSum(a, b netsim.FlowStats) netsim.FlowStats { return flowAdd(a, b, 1) }

// flowAdd returns a + sign*b, field by field.
func flowAdd(a, b netsim.FlowStats, sign int64) netsim.FlowStats {
	d := time.Duration(sign)
	return netsim.FlowStats{
		Solves:            a.Solves + sign*b.Solves,
		Segments:          a.Segments + sign*b.Segments,
		Traces:            a.Traces + sign*b.Traces,
		CacheHits:         a.CacheHits + sign*b.CacheHits,
		Evicted:           a.Evicted + sign*b.Evicted,
		FullInvalidations: a.FullInvalidations + sign*b.FullInvalidations,
		WaterfillIters:    a.WaterfillIters + sign*b.WaterfillIters,
		TransposeBuilds:   a.TransposeBuilds + sign*b.TransposeBuilds,
		TraceWall:         a.TraceWall + d*b.TraceWall,
		WaterfillWall:     a.WaterfillWall + d*b.WaterfillWall,
		HistWall:          a.HistWall + d*b.HistWall,
	}
}

// campaignResult times the grid through the campaign layer.
type campaignResult struct {
	sweepS, directS, replayS, hitRatio float64
}

// campaignPass runs the grid through core.SweepOpts with an in-memory
// store (one client, Jobs 1), then again over the filled store. Each
// SweepOpts call builds its system afresh, so every series is also
// measured directly the same way: core.Build, then MeasureLoad with a
// reset between points, then Close. The sweep minus that direct time is
// the campaign layer's own cost. Every pass must return the reference
// pass's points.
func campaignPass(w workload, chk *checker) (campaignResult, error) {
	var cr campaignResult
	store := campaign.NewMemoryLRU[metrics.Point](len(w.grid()))
	sweep := func(si, ri int) (float64, error) {
		s := w.systems[si]
		sr := s.series[ri]
		runtime.GC()
		t := time.Now()
		got, err := core.SweepOpts(s.cfg, sr.pattern, sr.rates, w.sim, core.RunOptions{Jobs: 1, Store: store})
		d := time.Since(t).Seconds()
		if err != nil {
			return 0, fmt.Errorf("campaign %s: %w", s.cfg.Label(), err)
		}
		for k, pt := range got.Points {
			key := w.key(point{si, ri, k})
			chk.same("campaign", key, pointDigest(pt), chk.points[key])
		}
		return d, nil
	}
	direct := func(si, ri int) (float64, error) {
		s := w.systems[si]
		sr := s.series[ri]
		runtime.GC()
		t := time.Now()
		b, err := buildSystem(system{cfg: s.cfg, series: []series{sr}})
		if err != nil {
			return 0, err
		}
		rs := make([]core.Result, len(sr.rates))
		for k, rate := range sr.rates {
			if k > 0 {
				b.sys.Reset()
			}
			if rs[k], err = b.sys.MeasureLoad(b.patterns[0], rate, w.sim); err != nil {
				break
			}
		}
		b.sys.Close()
		d := time.Since(t).Seconds()
		if err != nil {
			return 0, fmt.Errorf("direct %s: %w", s.cfg.Label(), err)
		}
		for k, r := range rs {
			key := w.key(point{si, ri, k})
			chk.same("direct", key, resultDigest(r), chk.full[key])
		}
		return d, nil
	}
	for si, s := range w.systems {
		for ri := range s.series {
			d, err := direct(si, ri)
			if err != nil {
				return cr, err
			}
			c, err := sweep(si, ri)
			if err != nil {
				return cr, err
			}
			cr.directS += d
			cr.sweepS += c
		}
	}
	h0, m0 := store.Hits(), store.Misses()
	for si, s := range w.systems {
		for ri := range s.series {
			c, err := sweep(si, ri)
			if err != nil {
				return cr, err
			}
			cr.replayS += c
		}
	}
	hits, misses := store.Hits()-h0, store.Misses()-m0
	cr.hitRatio = ratio(float64(hits), float64(hits+misses))
	return cr, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced makes the per-layer measurements: untraced reference passes,
// the traced pass, and the campaign passes, each over the whole grid once.
func runTraced(w workload, chk *checker) ([]metric, *tracer, error) {
	// The first reference pass pays the process's first-touch costs (heap
	// growth, page faults); the second is the one the traced pass is
	// compared with.
	if _, err := referencePass(w, chk); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	refWall, err := referencePass(w, chk)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	tr := newTracer()
	lt, err := tracedPass(w, tr, chk)
	if err != nil {
		return nil, tr, err
	}
	runtime.GC()
	cr, err := campaignPass(w, chk)
	if err != nil {
		return nil, tr, err
	}

	if err := tr.check(); err != nil {
		return nil, tr, err
	}
	self := tr.selfSeconds()
	layerSelf := map[string]float64{}
	var wall, measureSelf float64
	for i, s := range tr.spans {
		layerSelf[s.layer()] += self[i]
		switch s.Name {
		case "bench.setup", "bench.points":
			wall += s.seconds()
		case "core.measure", "core.demands", "core.reroute":
			measureSelf += self[i]
		}
	}
	// The root spans must agree with the traced pass's own clock reads.
	if d := math.Abs(wall - lt.wallS); d > 1e-3 {
		return nil, tr, fmt.Errorf("root spans sum to %v s, the traced pass took %v s", wall, lt.wallS)
	}
	// The residual is the time inside the root spans but outside every
	// layer's spans, so the layer self times plus it add up to the wall.
	residual := layerSelf["bench"]
	runS := tr.total("netsim.run")
	f := lt.flow
	pts := float64(max(lt.points, 1))
	return []metric{
		{"topology.build_s", tr.total("topology.build"), "s"},
		{"routing.build_s", tr.total("routing.build"), "s"},
		{"netsim.heap_b_per_chip", lt.heapBytes / lt.chips, "B/chip"},
		{"netsim.alloc_b_per_point", lt.allocBytes / pts, "B/point"},
		{"netsim.run_s", runS, "s"},
		{"netsim.ns_per_router_cycle", runS * 1e9 / lt.routerCycles, "ns"},
		{"netsim.ns_per_pkt", runS * 1e9 / float64(lt.pkts), "ns"},
		{"netsim.pkts_delivered", float64(lt.pkts), "count"},
		{"netsim.snapshot_s", tr.total("netsim.snapshot"), "s"},
		{"netsim.reset_s", tr.total("netsim.reset"), "s"},
		{"netsim.self_s", layerSelf["netsim"], "s"},
		{"flow.trace_s", f.TraceWall.Seconds(), "s"},
		{"flow.cold_trace_s", lt.coldFlow.TraceWall.Seconds(), "s"},
		{"flow.traces", float64(f.Traces), "count"},
		{"flow.cache_hit_ratio", ratio(float64(f.CacheHits), float64(f.CacheHits+f.Traces)), "ratio"},
		{"flow.warm_cache_hit_ratio", ratio(float64(lt.warmHits), float64(lt.warmTotal)), "ratio"},
		{"flow.waterfill_s", f.WaterfillWall.Seconds(), "s"},
		{"flow.waterfill_iters", float64(f.WaterfillIters), "count"},
		{"flow.hist_s", f.HistWall.Seconds(), "s"},
		{"flow.transpose_builds", float64(f.TransposeBuilds), "count"},
		{"flow.full_invalidations", float64(f.FullInvalidations), "count"},
		{"flow.evicted", float64(f.Evicted), "count"},
		{"flow.segments", float64(f.Segments), "count"},
		{"flow.self_s", layerSelf["flow"], "s"},
		{"core.measure_self_s", measureSelf, "s"},
		{"core.self_s", layerSelf["core"], "s"},
		{"campaign.overhead_s", cr.sweepS - cr.directS, "s"},
		{"campaign.replay_s", cr.replayS, "s"},
		{"campaign.store_hit_ratio", cr.hitRatio, "ratio"},
		{"trace.wall_s", wall, "s"},
		{"trace.residual_s", residual, "s"},
		{"trace.overhead_s", wall - refWall, "s"},
	}, tr, nil
}

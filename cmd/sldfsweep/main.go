// Command sldfsweep runs a latency-vs-injection-rate sweep over one or more
// systems and emits CSV (one latency and throughput column per system).
//
// Example — reproduce a Fig. 11(a)-style comparison:
//
//	sldfsweep -systems sw-based,sw-less,sw-less-2B -pattern uniform \
//	          -from 0.1 -to 1.0 -step 0.1 > fig11a.csv
//
// Example — the same sweep on a degraded network with 5% of channels and
// 2% of redundant routers failed (deterministic for a given -faultseed):
//
//	sldfsweep -systems sw-less,sw-less-mis -faults 0.05 -faultrouters 0.02 \
//	          -faultseed 7 -from 0.1 -to 0.6 -step 0.1 > degraded.csv
//
// Example — live churn: 2% of channels die (and are repaired 2000 cycles
// later) at seeded cycles mid-run, with stranded packets retried at their
// source (deterministic for a given seed= in the spec):
//
//	sldfsweep -systems sw-less -churn "links=0.02,seed=7,start=1000,end=5000,repair=2000,policy=retry" \
//	          -from 0.1 -to 0.6 -step 0.1 > churn.csv
//
// Example — the same sweep sharded across two sldfd worker daemons (the
// CSV is bitwise identical to the local run, even if a worker dies
// mid-sweep):
//
//	sldfd -listen :8437 &    # on each worker host
//	sldfsweep -remote host1:8437,host2:8437 -systems sw-based,sw-less \
//	          -from 0.1 -to 1.0 -step 0.1 > fig11a.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
	"sldf/internal/core"
	"sldf/internal/metrics"
	"sldf/internal/profiling"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

func main() {
	var (
		systems  = flag.String("systems", "sw-based,sw-less", "comma-separated systems: sw-based | sw-less | sw-less-2B | sw-less-4B | switch | mesh, each with optional -mis suffix for Valiant routing")
		size     = flag.String("size", "radix16", "scale: radix16 | radix24 | radix32 | radix56")
		pattern  = flag.String("pattern", "uniform", "traffic pattern")
		from     = flag.Float64("from", 0.1, "first injection rate")
		to       = flag.Float64("to", 1.0, "last injection rate")
		step     = flag.Float64("step", 0.1, "rate step")
		groups   = flag.Int("groups", 0, "override W-group count")
		warmup   = flag.Int64("warmup", 5000, "warmup cycles")
		measure  = flag.Int64("measure", 10000, "measured cycles")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", 0, "parallel workers per simulation")
		jobs     = flag.Int("jobs", 1, "sweep points measured concurrently (results identical for any value)")
		cacheDir = flag.String("cache", "", "directory for the on-disk point cache (empty = off)")
		remotes  = flag.String("remote", "", "comma-separated sldfd worker addresses; shards points across them (results identical to local)")

		faults       = flag.Float64("faults", 0, "fraction of channels to fail at build time (0 = pristine network)")
		faultRouters = flag.Float64("faultrouters", 0, "fraction of redundant routers (port modules, spare cores) to fail")
		faultSeed    = flag.Uint64("faultseed", 1, "fault-sampling seed (same spec + seed = same failures)")
		churn        = flag.String("churn", "", "in-run fault timeline, e.g. links=0.02,routers=0.01,seed=7,start=1000,end=5000,repair=2000,policy=retry (empty = no churn)")
		engine       = flag.String("engine", "", "simulation engine: active-set (default) | reference | flow")

		flowPar  = flag.Int("flowpar", 0, "flow engine: parallel trace/waterfill workers per point (0 = serial; CSV identical for any value)")
		flowCold = flag.Bool("flowcold", false, "flow engine: re-trace every route at every point (CSV identical, for timing baselines)")
	)
	prof := profiling.Flags()
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "sldfsweep:", err)
		}
	}()

	timeline, err := topology.ParseChurn(*churn)
	if err != nil {
		fatalf("%v", err)
	}

	rates := core.RateGrid(*from, *to, *step)
	sp := core.SimParams{Warmup: *warmup, Measure: *measure,
		ExtraDrain: *measure / 2, PacketSize: 4}
	if sp.Engine, err = core.ParseEngine(*engine); err != nil {
		fatalf("%v", err)
	}
	sp.FlowWorkers = *flowPar
	sp.FlowCold = *flowCold

	opts := core.RunOptions{Jobs: *jobs}
	var diskCache *campaign.Cache
	if *cacheDir != "" {
		c, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		diskCache = c
		opts.Store = campaign.NewTiered[metrics.Point](
			campaign.NewMemoryLRU[metrics.Point](1024), c)
	}
	if *remotes != "" {
		backend, err := remote.New(strings.Split(*remotes, ","), remote.Options{})
		if err != nil {
			fatalf("%v", err)
		}
		if err := backend.Check(); err != nil {
			fatalf("%v", err)
		}
		opts.Backend = backend
		fmt.Fprintf(os.Stderr, "backend: %s\n", backend.Name())
	}

	fig := metrics.Figure{Name: "sweep", Title: *pattern}
	for _, name := range strings.Split(*systems, ",") {
		cfg, err := parseSystem(strings.TrimSpace(name), *size, *groups)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Seed = *seed
		cfg.Workers = *workers
		cfg.Faults = faultSpecFromFlags(*faults, *faultRouters, *faultSeed)
		cfg.Churn = timeline
		fmt.Fprintf(os.Stderr, "sweeping %s over %d rates...\n", name, len(rates))
		t0 := time.Now()
		s, err := core.SweepOpts(cfg, *pattern, rates, sp, opts)
		if err != nil {
			fatalf("sweep %s: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "sweep %s: %d rates in %v (incl. build)\n",
			name, len(rates), time.Since(t0).Round(time.Millisecond))
		s.Label = name
		fig.Series = append(fig.Series, s)
	}
	fmt.Print(fig.CSV())
	for _, s := range fig.Series {
		fmt.Fprintf(os.Stderr, "saturation(%s) ≈ %.2f flits/cycle/chip\n",
			s.Label, s.Saturation(3))
	}
	if diskCache != nil {
		fmt.Fprintln(os.Stderr, diskCache.StatsLine())
	}
}

// parseSystem maps a CLI name like "sw-less-2B-mis" to a Config.
func parseSystem(name, size string, groups int) (core.Config, error) {
	cfg := core.Config{}
	base := name
	switch {
	case strings.HasSuffix(base, "-mis-lower"):
		cfg.Mode = routing.ValiantLower
		base = strings.TrimSuffix(base, "-mis-lower")
	case strings.HasSuffix(base, "-mis"):
		cfg.Mode = routing.Valiant
		base = strings.TrimSuffix(base, "-mis")
	case strings.HasSuffix(base, "-ugal"):
		cfg.Mode = routing.Adaptive
		base = strings.TrimSuffix(base, "-ugal")
	}
	switch {
	case base == "switch":
		cfg.Kind = core.SingleSwitch
		cfg.Terminals = 4
		return cfg, nil
	case base == "mesh":
		cfg.Kind = core.MeshCGroup
		cfg.ChipletDim, cfg.NoCDim = 2, 2
		return cfg, nil
	case base == "sw-based":
		cfg.Kind = core.SwitchDragonfly
		switch size {
		case "radix16":
			cfg.DF = core.Radix16DF()
		case "radix24":
			cfg.DF = core.Radix24DF()
		case "radix32":
			cfg.DF = core.Radix32DF()
		case "radix56":
			cfg.DF = core.Radix56DF()
		default:
			return cfg, fmt.Errorf("unknown size %q", size)
		}
		if groups > 0 {
			cfg.DF.G = groups
		}
		return cfg, nil
	case strings.HasPrefix(base, "sw-less"):
		cfg.Kind = core.SwitchlessDragonfly
		switch size {
		case "radix16":
			cfg.SLDF = core.Radix16SLDF()
		case "radix24":
			cfg.SLDF = core.Radix24SLDF()
		case "radix32":
			cfg.SLDF = core.Radix32SLDF()
		case "radix56":
			cfg.SLDF = core.Radix56SLDF()
		default:
			return cfg, fmt.Errorf("unknown size %q", size)
		}
		switch strings.TrimPrefix(base, "sw-less") {
		case "":
			cfg.IntraWidth = 1
		case "-2B":
			cfg.IntraWidth = 2
		case "-4B":
			cfg.IntraWidth = 4
		case "-rvc":
			cfg.Scheme = routing.ReducedVC
		default:
			return cfg, fmt.Errorf("unknown system %q", base)
		}
		if groups > 0 {
			cfg.SLDF.G = groups
		}
		return cfg, nil
	}
	return cfg, fmt.Errorf("unknown system %q", name)
}

// faultSpecFromFlags maps the -faults/-faultrouters/-faultseed flags to a
// build-time fault spec; both fractions at zero keep the build pristine
// (bitwise identical to a run without the flags, whatever the seed).
func faultSpecFromFlags(linkFrac, routerFrac float64, seed uint64) topology.FaultSpec {
	if linkFrac <= 0 && routerFrac <= 0 {
		return topology.FaultSpec{}
	}
	return topology.FaultSpec{
		Seed:           seed,
		LinkFraction:   linkFrac,
		RouterFraction: routerFrac,
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sldfsweep: "+format+"\n", args...)
	os.Exit(1)
}

package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"sldf/internal/core"
	"sldf/internal/traffic"
)

// built is one workload system after core.Build, with its series' patterns.
type built struct {
	sys      *core.System
	patterns []traffic.Pattern
}

func buildSystem(s system) (built, error) {
	sys, err := core.Build(s.cfg)
	if err != nil {
		return built{}, fmt.Errorf("build %s: %w", s.cfg.Label(), err)
	}
	b := built{sys: sys}
	for _, sr := range s.series {
		pat, err := sys.PatternFor(sr.pattern)
		if err != nil {
			sys.Close()
			return built{}, err
		}
		b.patterns = append(b.patterns, pat)
	}
	return b, nil
}

func closeAll(bs []built) {
	for _, b := range bs {
		b.sys.Close()
	}
}

// buildAll builds every system of the workload, returning the host seconds
// spent inside core.Build.
func buildAll(w workload) ([]built, float64, error) {
	var bs []built
	var setup float64
	for _, s := range w.systems {
		t := time.Now()
		b, err := buildSystem(s)
		setup += time.Since(t).Seconds()
		if err != nil {
			closeAll(bs)
			return nil, 0, err
		}
		bs = append(bs, b)
	}
	return bs, setup, nil
}

// measure runs one load point the way a campaign worker does: reset the
// system unless it is fresh from Build, then MeasureLoad.
func measure(w workload, bs []built, p point, fresh bool) (core.Result, error) {
	b := bs[p.sys]
	if !fresh {
		b.sys.Reset()
	}
	return b.sys.MeasureLoad(b.patterns[p.series], w.rate(p), w.sim)
}

// endToEnd are the untraced run's results.
type endToEnd struct {
	setupS, coldPointS float64 // fastQ quantiles over every set-up of every round
	pointsPerS         float64
	peakRSSMB          float64
}

// runUntraced is the timed run, a closed loop with one client measuring
// one point at a time. It repeats rounds until seconds have elapsed (and at
// least minRounds times). A round builds every system and measures each
// system's cold point, setupsPerRound times, then measures one warm pass
// over the whole grid on the last build. Rounds spread every sample over
// the run, so each timing sees the host's fast and slow phases alike. Every
// timing's samples go to stderr, for a reader who wants other statistics.
func runUntraced(w workload, seconds float64, chk *checker) (endToEnd, error) {
	var res endToEnd
	grid := w.grid()
	var setups, colds []float64
	pointTimes := make([][]float64, len(grid))
	start := time.Now()
	for rounds := 0; rounds < w.minRounds || time.Since(start).Seconds() < seconds; rounds++ {
		var bs []built
		for range w.setupsPerRound {
			closeAll(bs)
			// Collections between the timed steps are untimed: they start
			// every set-up from the same heap and keep Build's garbage from
			// being collected inside the cold points.
			runtime.GC()
			var setup float64
			var err error
			if bs, setup, err = buildAll(w); err != nil {
				return res, err
			}
			runtime.GC()
			var cold float64
			for _, p := range w.coldPoints() {
				t := time.Now()
				r, err := measure(w, bs, p, true)
				cold += time.Since(t).Seconds()
				chk.result(w.key(p), r, err)
			}
			setups = append(setups, setup)
			colds = append(colds, cold)
		}
		for i, p := range grid {
			t := time.Now()
			r, err := measure(w, bs, p, false)
			pointTimes[i] = append(pointTimes[i], time.Since(t).Seconds())
			chk.result(w.key(p), r, err)
		}
		closeAll(bs)
	}
	// A pass costs the sum of its points' fastQ-quantile times.
	var pass float64
	for _, ts := range pointTimes {
		pass += quantile(ts, fastQ)
	}
	fmt.Fprintf(os.Stderr, "samples setup_s %.4f\nsamples cold_point_s %.4f\nsamples pass_s %.4f\n", setups, colds, passes(pointTimes))
	res.pointsPerS = float64(len(grid)) / pass
	res.setupS = quantile(setups, fastQ)
	res.coldPointS = quantile(colds, fastQ)
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	res.peakRSSMB = rss
	return res, nil
}

// fastQ is the quantile a timed run reports of each timing's samples.
// On a shared 2-vCPU VM, neighbours slow the benchmark by up to 2x for
// tens of seconds at a time, and only ever add time. A run's median lands in
// whichever phase covered most of it, so medians of runs spread as wide
// as the phases; a low quantile reads the program in the faster phases a
// run contains. A phase that covers whole runs still moves it. A change to
// the program moves every sample, and so this quantile too.
const fastQ = 0.1

// quantile returns the q quantile of xs, interpolating linearly between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i+1 >= n {
		return s[n-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// passes returns each round's warm-pass time, for the samples line.
func passes(pointTimes [][]float64) []float64 {
	var out []float64
	for i := range pointTimes[0] {
		var s float64
		for _, ts := range pointTimes {
			s += ts[i]
		}
		out = append(out, s)
	}
	return out
}

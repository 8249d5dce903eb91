// Command perfbench is the repository's benchmark. One invocation runs one
// workload in its own process and prints its metrics by name and unit,
// ending with a one-line JSON result:
//
//	bash perfbench/run.sh --workload cycle-radix16 --seed 1 --seconds 40 --trace 0
//
// --trace 0 is the timed run and reports the end-to-end metrics; --trace 1
// is the traced run and reports the per-layer metrics, writing its spans
// to .bench_build/spans/. Every measured point is checked: see checker.
// Run it from the repository root; see README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type metric struct {
	name  string
	value float64
	unit  string
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	// recorded overrides the embedded digests when non-nil (tests).
	recorded map[string]string
	// record checks no recorded digests; the run's own are written out.
	record bool
	// spans is where a traced run writes its spans:
	// .bench_build/spans/<workload>-seed<seed>.json (tests: a temp file).
	spans string
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
	metrics   []metric
	digest    string            // the workload digest
	digests   map[string]string // point key → digest
	problems  []string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var record string
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed (Config.Seed of every system)")
	fs.Float64Var(&o.seconds, "seconds", 40, "how long the timed run repeats its rounds")
	fs.IntVar(&trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&record, "record-digests", "", "write this run's per-point digests into the given digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	o.record = record != ""

	env := readEnvironment(".")
	res, err := run(o, env)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if record != "" {
		if err := recordDigests(record, o, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return report(stdout, stderr, o, env, res)
}

// report prints a run's env and digest lines, one line per metric, and
// last the JSON result.
func report(stdout, stderr io.Writer, o options, env environment, res result) int {
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	fmt.Fprintf(stdout, "digest %s seed=%d %s\n", o.workload, o.seed, res.digest)
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %-28s %.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "metric %-28s %.6g %s\n", "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// run executes one timed or traced run of a workload.
func run(o options, env environment) (result, error) {
	var res result
	w, err := newWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return res, err
	}
	recorded := o.recorded
	if recorded == nil && !o.record && o.seed == defaultSeed && !o.tiny {
		all, err := recordedDigests()
		if err != nil {
			return res, err
		}
		if recorded = all[o.workload]; recorded == nil {
			return res, fmt.Errorf("digests.json has no digests for %s", o.workload)
		}
	}
	chk := newChecker(recorded)
	if o.trace {
		ms, tr, err := runTraced(w, chk)
		if tr != nil {
			if werr := writeSpans(o, env, tr); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return res, err
		}
		res.metrics = ms
	} else {
		e, err := runUntraced(w, o.seconds, chk)
		if err != nil {
			return res, err
		}
		res.metrics = []metric{
			{"setup_s", e.setupS, "s"},
			{"points_per_s", e.pointsPerS, "1/s"},
			{"cold_point_s", e.coldPointS, "s"},
			{"peak_rss_mb", e.peakRSSMB, "MB"},
		}
	}
	res.Attempted, res.Failed, res.problems = chk.attempted, chk.failed, chk.problems
	res.Correct = chk.failed == 0 && chk.attempted > 0
	res.digest, res.digests = chk.workloadDigest(w), chk.full
	res.Metrics = map[string]map[string]any{}
	for _, m := range res.metrics {
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return res, nil
}

func writeSpans(o options, env environment, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Env      environment `json:"env"`
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Spans    []span      `json:"spans"`
	}{env, o.workload, o.seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(o.spans, b, 0o644)
}

// recordDigests merges this run's per-point digests into path, under the
// workload's name. Only the default seed at full size is recorded.
func recordDigests(path string, o options, res result) error {
	if o.seed != defaultSeed || o.tiny {
		return fmt.Errorf("--record-digests needs --seed %d at full size", defaultSeed)
	}
	if !res.Correct {
		return fmt.Errorf("not recording digests of a failed run")
	}
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[o.workload] = res.digests
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

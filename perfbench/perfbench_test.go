package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bench.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestTinyRunsPrintEveryMetric runs every workload at tiny size, timed and
// traced, and checks that each metric BENCHMARK.json declares prints by
// name with its unit, on a human-readable line and in the JSON result.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				o := options{workload: name, seed: defaultSeed, tiny: true, trace: trace == 1,
					spans: filepath.Join(t.TempDir(), "spans.json")}
				r, err := run(o, environment{})
				if err != nil {
					t.Fatal(err)
				}
				var stdout, stderr bytes.Buffer
				if code := report(&stdout, &stderr, o, environment{}, r); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				got := map[string]string{}
				for n, m := range res.Metrics {
					got[n] = m.Unit
				}
				if !maps.Equal(got, want) {
					t.Errorf("JSON metrics %v, BENCHMARK.json declares %v", got, want)
				}
				printed := map[string]string{}
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
						printed[f[1]] = f[3]
					}
				}
				for n, unit := range want {
					if printed[n] != unit {
						t.Errorf("metric %s printed with unit %q, want %q", n, printed[n], unit)
					}
				}
				if printed["failed_frac"] != "ratio" {
					t.Errorf("failed_frac not printed")
				}
			})
		}
	}
}

// TestCorruptedDigestIsCaught is the result check's teeth: a run checked
// against its own digests passes, and the same run against a recorded set
// with one corrupted digest counts failures.
func TestCorruptedDigestIsCaught(t *testing.T) {
	o := options{workload: "cycle-radix16", seed: defaultSeed, tiny: true, record: true}
	first, err := run(o, environment{})
	if err != nil || !first.Correct {
		t.Fatalf("recording run: correct=%v err=%v", first.Correct, err)
	}
	o.record, o.recorded = false, maps.Clone(first.digests)
	if again, err := run(o, environment{}); err != nil || !again.Correct || again.digest != first.digest {
		t.Fatalf("rerun against its own digests: correct=%v digest %s vs %s err=%v",
			again.Correct, again.digest, first.digest, err)
	}
	o.recorded["sw-less/uniform/0.5"] = "0123456789abcdef"
	bad, err := run(o, environment{})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Correct || bad.Failed == 0 {
		t.Fatalf("corrupted digest not caught: correct=%v failed=%d", bad.Correct, bad.Failed)
	}
}

// TestRecordedDigestsCoverEveryPoint checks digests.json holds exactly the
// full-size grid of every workload.
func TestRecordedDigestsCoverEveryPoint(t *testing.T) {
	all, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, defaultSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, p := range w.grid() {
			keys[w.key(p)] = true
			if all[name][w.key(p)] == "" {
				t.Errorf("%s: no recorded digest for %s", name, w.key(p))
			}
		}
		if len(all[name]) != len(keys) {
			t.Errorf("%s: %d recorded digests for %d points", name, len(all[name]), len(keys))
		}
	}
}

func TestSelfSeconds(t *testing.T) {
	tr := &tracer{cur: -1, point: -1, spans: []span{
		{ID: 0, Parent: -1, Name: "bench.points", Start: 0, End: 10e9},
		{ID: 1, Parent: 0, Name: "netsim.run", Start: 1e9, End: 7e9},
		{ID: 2, Parent: 1, Name: "flow.trace", Start: 1e9, End: 3e9, Derived: true},
		{ID: 3, Parent: 0, Name: "netsim.snapshot", Start: 8e9, End: 9e9},
	}}
	want := []float64{3, 4, 2, 1}
	for i, got := range tr.selfSeconds() {
		if got != want[i] {
			t.Errorf("span %s self %v s, want %v s", tr.spans[i].Name, got, want[i])
		}
	}
}

// TestSpanCheck covers the traced run's span checks: a well-formed tree
// passes, an open span and a child outlasting its parent fail.
func TestSpanCheck(t *testing.T) {
	spans := func() []span {
		return []span{
			{ID: 0, Parent: -1, Name: "bench.points", Start: 0, End: 10e9},
			{ID: 1, Parent: 0, Name: "netsim.run", Start: 1e9, End: 7e9},
			{ID: 2, Parent: 1, Name: "flow.trace", Start: 1e9, End: 3e9, Derived: true},
		}
	}
	if err := (&tracer{spans: spans()}).check(); err != nil {
		t.Errorf("well-formed spans: %v", err)
	}
	open := spans()
	open[1].End = -1
	if err := (&tracer{spans: open}).check(); err == nil {
		t.Error("open span not caught")
	}
	long := spans()
	long[2].End = 8e9
	if err := (&tracer{spans: long}).check(); err == nil {
		t.Error("child longer than its parent not caught")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.1, 1.4}, {0.5, 3}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, fastQ); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

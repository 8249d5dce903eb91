package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"sldf/internal/core"
	"sldf/internal/metrics"
)

// defaultSeed is the seed whose per-point digests are recorded in
// digests.json. Other seeds are checked for run-internal consistency only,
// and print their workload digest so two builds can be compared.
const defaultSeed = 1

//go:embed digests.json
var recordedJSON []byte

// recordedDigests maps workload → point key → digest, for defaultSeed at
// full size.
func recordedDigests() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(recordedJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// pointDigest hashes a point's metrics.Point. JSON encodes every float with
// the shortest representation that round-trips, so equal digests mean
// bit-identical values.
func pointDigest(p metrics.Point) string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // metrics.Point holds only numbers
	}
	return hash(b)
}

// resultDigest hashes a point's metrics.Point together with its full
// netsim.Stats (counters, hop mix and latency histogram).
func resultDigest(r core.Result) string {
	b, err := json.Marshal(struct {
		Point any
		Stats any
	}{r.Point, r.Stats})
	if err != nil {
		panic(err)
	}
	return hash(b)
}

func hash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checker validates every measured point of one run and counts attempts
// and failures. A point fails when its measurement errors, when it breaks
// a sanity invariant, when it differs from an earlier measurement of the
// same point in this run, or when it differs from the recorded digest.
type checker struct {
	recorded          map[string]string // nil when the run's seed has none
	full              map[string]string // key → result digest, first measurement
	points            map[string]string // key → metrics.Point digest
	attempted, failed int
	problems          []string
}

func newChecker(recorded map[string]string) *checker {
	return &checker{recorded: recorded, full: map[string]string{}, points: map[string]string{}}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// result checks one measured point.
func (c *checker) result(key string, r core.Result, err error) {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", key, err)
		return
	}
	if msg := sanity(r); msg != "" {
		c.fail("%s: %s", key, msg)
		return
	}
	d := resultDigest(r)
	if want, ok := c.recorded[key]; ok && d != want {
		c.fail("%s: digest %s, recorded %s", key, d, want)
		return
	}
	if c.recorded != nil {
		if _, ok := c.recorded[key]; !ok {
			c.fail("%s: no recorded digest", key)
			return
		}
	}
	if prev, ok := c.full[key]; ok {
		if d != prev {
			c.fail("%s: digest %s differs from this run's earlier %s", key, d, prev)
		}
		return
	}
	c.full[key] = d
	c.points[key] = pointDigest(r.Point)
}

// same checks a re-measurement of key against this run's first
// measurement: want is the reference digest, got the new one.
func (c *checker) same(what, key, got, want string) {
	c.attempted++
	if got != want {
		c.fail("%s %s: digest %s, untraced %s", what, key, got, want)
	}
}

// sanity checks invariants every load point satisfies: the window
// delivered traffic, latency is finite and positive, and no more packets
// were delivered than injected.
func sanity(r core.Result) string {
	p, st := r.Point, r.Stats
	switch {
	case st.DeliveredPkts <= 0 || p.Throughput <= 0:
		return "nothing delivered"
	case st.DeliveredPkts > st.InjectedPkts:
		return fmt.Sprintf("delivered %d > injected %d", st.DeliveredPkts, st.InjectedPkts)
	case !(p.Latency > 0) || math.IsInf(p.Latency, 0):
		return fmt.Sprintf("latency %v", p.Latency)
	case p.Throughput > p.Rate*1.5:
		return fmt.Sprintf("throughput %v above offered %v", p.Throughput, p.Rate)
	}
	return ""
}

// workloadDigest hashes the per-point digests in grid order.
func (c *checker) workloadDigest(w workload) string {
	h := sha256.New()
	for _, p := range w.grid() {
		k := w.key(p)
		fmt.Fprintf(h, "%s=%s\n", k, c.full[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Command perfbench is actyp's benchmark. It assembles the daemon
// in-process the way actypd does, drives it over loopback TCP through
// core.Client with a seeded open-loop generator, checks every output,
// and prints the end-to-end metrics of one workload (or, with -trace 1,
// the per-layer metrics of a traced run) as one JSON line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload lease-churn --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --runs 5
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"actyp/internal/registry"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads, in the order "all" runs them.
var workloads = []struct {
	name string
	run  func(rc *runCtx, tr *tracer) (*outcome, error)
}{
	{"lease-churn", runLeaseChurn},
	{"fleet-read", runFleetRead},
	{"overload", runOverload},
	{"restart", runRestart},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports; each workload
// maps its primary operation onto p50/p99/goodput/capacity (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"cpu_us_per_op", "us"},
	{"wire_bytes_per_op", "B"},
}

// perLayer are the metrics every traced run reports.
var perLayer = []metricDef{
	{"registry.select_p50_us", "us"},
	{"registry.select_p99_us", "us"},
	{"registry.select_copied_per_returned", "ratio"},
	{"registry.update_batch_us", "us"},
	{"registry.take_us", "us"},
	{"registry.release_us", "us"},
	{"registry.replica_apply_us", "us"},
	{"registry.watch_events", "count"},
	{"registry.watch_resyncs", "count"},
	{"registry.bytes_per_machine", "B"},
	{"pool.alloc_self_us", "us"},
	{"pool.scanned_per_alloc", "count"},
	{"pool.misses", "count"},
	{"pool.apply_batches", "count"},
	{"pool.apply_events", "count"},
	{"pool.resyncs", "count"},
	{"poolmgr.resolve_p50_us", "us"},
	{"poolmgr.resolve_p99_us", "us"},
	{"poolmgr.resolve_fail", "count"},
	{"poolmgr.directed_hops", "count"},
	{"poolmgr.directed_miss", "count"},
	{"poolmgr.fanouts", "count"},
	{"stage.hop_us", "us"},
	{"querymgr.fragments_per_query", "ratio"},
	{"querymgr.parse_us", "us"},
	{"journal.lease_append_p50_us", "us"},
	{"journal.lease_append_p99_us", "us"},
	{"journal.bytes_per_grant", "B"},
	{"journal.fsyncs", "count"},
	{"journal.fsync_ms", "ms"},
	{"journal.snapshots", "count"},
	{"journal.replay_ms", "ms"},
	{"journal.replay_records", "count"},
	{"core.recover_ms", "ms"},
	{"core.restored", "count"},
	{"core.reaped", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.bytes_per_op", "B"},
	{"wire.transit_us", "us"},
	{"wire.control.shed", "count"},
	{"wire.control.expired", "count"},
	{"wire.control.done", "count"},
	{"wire.control.depth_max", "count"},
	{"wire.lease.shed", "count"},
	{"wire.lease.expired", "count"},
	{"wire.lease.done", "count"},
	{"wire.lease.depth_max", "count"},
	{"wire.bulk.shed", "count"},
	{"wire.bulk.expired", "count"},
	{"wire.bulk.done", "count"},
	{"wire.bulk.depth_max", "count"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead", "ratio"},
	{"trace.accounted", "ratio"},
}

// runCtx is one workload run's settings.
type runCtx struct {
	seed   int64
	dur    time.Duration
	setups int    // set-ups timed; the last one serves the load
	dir    string // scratch directory inside the checkout
}

// baseHeap is the live heap before any workload state exists.
var baseHeap uint64

type namedValue struct {
	name, unit string
	value      float64
}

// outcome is everything one workload run measured.
type outcome struct {
	setups          []time.Duration
	heapMB          float64
	bytesPerMachine float64
	late            *hist   // generator lateness
	primary         *hist   // the workload's primary operation
	primaryP50      float64 // p50_ms when the workload sets it, not primary's median
	control         *hist   // renew/release/ping round trips
	capacity        float64
	wireBytes       float64 // generator bytes moved in the measured window
	ops             float64 // primary operations in the measured window
	attempted       int
	failed          int
	violations      []string
	details         []namedValue
	counts          map[string]int64
	layers          map[string]float64
	runtime         runtimeDelta
}

func newOutcome() *outcome {
	return &outcome{late: &hist{}, counts: make(map[string]int64)}
}

func (o *outcome) detail(name, unit string, v float64) {
	o.details = append(o.details, namedValue{name, unit, v})
}

func (o *outcome) count(name string, v int64) { o.counts[name] = v }

// heapReadings is how many forced-GC readings of the live heap
// measureHeap takes, heapEvery apart: it reports the least, since a
// journal snapshot in flight holds a clone of every record, which is not
// resident state.
const (
	heapReadings = 3
	heapEvery    = 250 * time.Millisecond
)

// measureHeap records the live heap once every machine of dbs has taken
// its first monitor update, and the resident bytes per machine above the
// process baseline. The first sweep allocates the synthetic sampler's
// per-machine state and replaces each loaded record with the updated
// copy; from then on the heap holds steady, so this is the serving
// daemon's resident state, not the freshly loaded one's.
func (o *outcome) measureHeap(machines int, dbs ...*registry.DB) error {
	if err := waitSweep(dbs); err != nil {
		return err
	}
	heap := math.Inf(1)
	for i := 0; i < heapReadings; i++ {
		if i > 0 {
			time.Sleep(heapEvery)
		}
		settle()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = math.Min(heap, float64(ms.HeapAlloc))
	}
	o.heapMB = heap / (1 << 20)
	o.bytesPerMachine = (heap - float64(baseHeap)) / float64(machines)
	return nil
}

// sweepTimeout bounds the wait for a first monitor sweep (one interval,
// 1 s, in actypd's defaults).
const sweepTimeout = 10 * time.Second

// waitSweep blocks until every machine of each db has changed since the
// call: nothing but the monitor writes during set-up, and a replica
// applies the source's updates as whole records.
func waitSweep(dbs []*registry.DB) error {
	subs := make([]*registry.Subscription, len(dbs))
	for i, db := range dbs {
		subs[i] = db.Watch(0)
		defer subs[i].Close()
	}
	deadline := time.After(sweepTimeout)
	for i, sub := range subs {
		updated := make(map[string]bool)
		for len(updated) < dbs[i].Len() {
			select {
			case <-sub.Ready():
			case <-deadline:
				return fmt.Errorf("no monitor sweep within %s: %d of %d machines updated", sweepTimeout, len(updated), dbs[i].Len())
			}
			evs, _ := sub.Poll()
			for _, ev := range evs {
				updated[ev.Name] = true
			}
		}
	}
	return nil
}

// endToEndValues maps an outcome onto the end-to-end metrics.
func (o *outcome) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":           median(o.setups).Seconds(),
		"heap_mb":           o.heapMB,
		"cpu_us_per_op":     float64(o.runtime.cpu) / 1e3 / o.ops,
		"wire_bytes_per_op": o.wireBytes / o.ops,
	}
}

// p50 is the end-to-end median of the primary operation.
func (o *outcome) p50() float64 {
	if o.primaryP50 > 0 {
		return o.primaryP50
	}
	return o.primary.QuantileMS(0.50)
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// detailLine is printed before the result: the workload's own named
// metrics, operation counts, and the environment of the run.
type detailLine struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Trace    bool                  `json:"trace"`
	Env      map[string]any        `json:"env"`
	Metrics  map[string]jsonMetric `json:"metrics"`
	Counts   map[string]int64      `json:"counts"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: lease-churn, fleet-read, overload, restart, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 20, "measured open-loop window per run")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		runs    = flag.Int("runs", 1, "repetitions per workload (seeds seed, seed+1, ...), reported as median and spread")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fatalf("bad flags: --seconds >= 1, --trace 0|1, --runs >= 1")
	}
	if *name == "all" || *runs > 1 {
		if err := repeat(*name, *seed, *seconds, *trace, *runs); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if err := runOne(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func runOne(name string, seed int64, dur time.Duration, traced bool) error {
	var run func(rc *runCtx, tr *tracer) (*outcome, error)
	for _, w := range workloads {
		if w.name == name {
			run = w.run
		}
	}
	if run == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap = ms.HeapAlloc

	rc := &runCtx{seed: seed, dur: dur, setups: 3, dir: dir}
	var o *outcome
	if !traced {
		var err error
		if o, err = run(rc, nil); err != nil {
			return err
		}
	} else {
		// The untraced half is the baseline of the tracing overhead.
		rc.setups = 1
		rc.dir = filepath.Join(dir, "untraced")
		base, err := run(rc, nil)
		if err != nil {
			return err
		}
		if err := base.validate(); err != nil {
			return err
		}
		rc.dir = filepath.Join(dir, "traced")
		if o, err = run(rc, newTracer()); err != nil {
			return err
		}
		o.layers["trace.overhead"] = o.p50() / base.p50()
	}
	if err := o.validate(); err != nil {
		return err
	}
	metrics := make(map[string]jsonMetric)
	if traced {
		for _, m := range perLayer {
			v, ok := o.layers[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			metrics[m.name] = jsonMetric{v, m.unit}
		}
	} else {
		vals := o.endToEndValues()
		for _, m := range endToEnd {
			v := vals[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("%s: metric %s is %v: no operation ran, or most failed", name, m.name, v)
			}
			metrics[m.name] = jsonMetric{v, m.unit}
		}
	}
	if err := printDetail(name, seed, traced, o); err != nil {
		return err
	}
	return printJSON(resultLine{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
}

// validate turns correctness violations and an overrun generator into an
// error: such a run prints no metrics.
func (o *outcome) validate() error {
	if len(o.violations) > 0 {
		for _, v := range o.violations {
			fmt.Fprintln(os.Stderr, "perfbench: violation:", v)
		}
		return fmt.Errorf("%d correctness violations", len(o.violations))
	}
	if p := o.late.Quantile(0.99); p > float64(maxLateness) {
		return fmt.Errorf("generator lateness p99 %.1fms exceeds %s: the harness, not the daemon, set the schedule", p/1e6, maxLateness)
	}
	if o.attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	return nil
}

func printDetail(name string, seed int64, traced bool, o *outcome) error {
	d := detailLine{Workload: name, Seed: seed, Trace: traced, Env: environment(seed), Metrics: map[string]jsonMetric{}, Counts: o.counts}
	o.detail("p50_ms", "ms", o.p50())
	o.detail("p90_ms", "ms", o.primary.QuantileMS(0.90))
	o.detail("p99_ms", "ms", o.primary.QuantileMS(0.99))
	if o.capacity > 0 {
		o.detail("capacity_per_s", "1/s", o.capacity)
	}
	// A quantile past the failures reads +Inf, which JSON cannot carry;
	// fail_frac reports those failures.
	for _, v := range o.details {
		if !math.IsNaN(v.value) && !math.IsInf(v.value, 0) {
			d.Metrics[v.name] = jsonMetric{v.value, v.unit}
		}
	}
	d.Metrics["setup_s"] = jsonMetric{median(o.setups).Seconds(), "s"}
	d.Metrics["heap_mb"] = jsonMetric{o.heapMB, "MiB"}
	d.Metrics["fail_frac"] = jsonMetric{o.failFrac(), "ratio"}
	d.Metrics["generator_late_p99_ms"] = jsonMetric{o.late.QuantileMS(0.99), "ms"}
	d.Metrics["host_steal_ms"] = jsonMetric{float64(o.runtime.steal) / 1e6, "ms"}
	d.Counts["attempted"] = int64(o.attempted)
	d.Counts["failed"] = int64(o.failed)
	return printJSON(d)
}

// failFrac is failed, shed or late operations over attempted ones; the
// overload workload adds its refusals through the "refused" count.
func (o *outcome) failFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(int64(o.failed)+o.counts["refused"]) / float64(o.attempted)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// settle lets the goroutines of closed nodes exit and collects their
// garbage, so neither a set-up timing nor a heap reading pays for an
// earlier one.
func settle() {
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	runtime.GC()
}

// setupDone records one timed set-up, less the time it spent waiting to
// pin the phase of the nodes' periodic tasks.
func (o *outcome) setupDone(start time.Time, nodes ...*node) {
	d := time.Since(start) - paced(nodes...)
	o.setups = append(o.setups, d)
	logf("setup %d: %.3fs", len(o.setups), d.Seconds())
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

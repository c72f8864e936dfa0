package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/core"
	actmetrics "actyp/internal/metrics"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/wire"
)

// codecProbe times the wire.Codec API directly on a sample of the
// workload's own envelopes — request and reply, encode and decode —
// together with query.Parse on the query texts the workload sends.
type codecProbe struct {
	enc, dec, parse hist
	bytes, ops      atomic.Int64
	n               atomic.Int64
}

// sample picks one operation in eight.
func (p *codecProbe) sample() bool { return p.n.Add(1)%8 == 1 }

// roundTrip encodes and decodes one request/reply pair with codec.
func (p *codecProbe) roundTrip(codec wire.Codec, typ string, req, reqOut, reply, replyOut any) error {
	var size int
	var encT, decT time.Duration
	for _, m := range []struct{ in, out any }{{req, reqOut}, {reply, replyOut}} {
		env, err := wire.NewEnvelope(typ, 1, m.in)
		if err != nil {
			return err
		}
		start := time.Now()
		buf, err := codec.AppendEnvelope(nil, env)
		encT += time.Since(start)
		if err != nil {
			return err
		}
		size += len(buf)
		start = time.Now()
		back, err := codec.DecodeEnvelope(buf)
		if err == nil {
			err = back.Decode(m.out)
		}
		decT += time.Since(start)
		if err != nil {
			return err
		}
	}
	p.enc.Observe(encT)
	p.dec.Observe(decT)
	p.bytes.Add(int64(size))
	p.ops.Add(1)
	return nil
}

// grant probes the query round trip of one granted session.
func (p *codecProbe) grant(text string, g *core.Grant) error {
	start := time.Now()
	_, err := query.Parse(text)
	p.parse.Observe(time.Since(start))
	if err != nil {
		return err
	}
	reply := wire.QueryReply{Lease: g.Lease, Fragments: g.Fragments, Succeeded: g.Succeeded, Shadow: &g.Shadow}
	return p.roundTrip(wire.Binary2, wire.TypeQuery, wire.QueryRequest{Text: text}, &wire.QueryRequest{}, reply, &wire.QueryReply{})
}

// runtimeWindow samples the process CPU time, the Go runtime's GC pause
// histogram and cycle count over a measured window, and the overload
// lanes' queue depth.
type runtimeWindow struct {
	before []metrics.Sample
	cpu    time.Duration
	steal  time.Duration
	stop   chan struct{}
	done   sync.WaitGroup
	depth  [actmetrics.NumClasses]atomic.Int64
}

type runtimeDelta struct {
	cpu        time.Duration // process CPU time over the window
	steal      time.Duration // CPU time the hypervisor gave other guests, all CPUs
	gcPauseP99 float64       // seconds
	gcCycles   uint64
	depthMax   [actmetrics.NumClasses]int64
}

func gcSamples() []metrics.Sample {
	s := []metrics.Sample{{Name: "/gc/pauses:seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s
}

// startRuntimeWindow begins a window; with stats set it also polls the
// lanes' queue-depth gauges for their maxima.
func startRuntimeWindow(stats ...*actmetrics.OverloadStats) *runtimeWindow {
	w := &runtimeWindow{before: gcSamples(), cpu: cpuTime(), steal: stealTime(), stop: make(chan struct{})}
	if len(stats) > 0 {
		w.done.Add(1)
		go func() {
			defer w.done.Done()
			t := time.NewTicker(2 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-w.stop:
					return
				case <-t.C:
				}
				for _, s := range stats {
					for c, counts := range s.Snapshot() {
						for {
							cur := w.depth[c].Load()
							if counts.Depth <= cur || w.depth[c].CompareAndSwap(cur, counts.Depth) {
								break
							}
						}
					}
				}
			}
		}()
	}
	return w
}

func (w *runtimeWindow) end() runtimeDelta {
	close(w.stop)
	w.done.Wait()
	after := gcSamples()
	var d runtimeDelta
	d.cpu = cpuTime() - w.cpu
	d.steal = stealTime() - w.steal
	d.gcCycles = after[1].Value.Uint64() - w.before[1].Value.Uint64()
	h0, h1 := w.before[0].Value.Float64Histogram(), after[0].Value.Float64Histogram()
	var total uint64
	counts := make([]uint64, len(h1.Counts))
	for i := range h1.Counts {
		counts[i] = h1.Counts[i] - h0.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		rank := uint64(float64(total) * 0.99)
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen > rank || seen == total {
				d.gcPauseP99 = h1.Buckets[i+1]
				break
			}
		}
	}
	for c := range d.depthMax {
		d.depthMax[c] = w.depth[c].Load()
	}
	return d
}

// stealTime is the host's steal time so far, from /proc/stat (0 where
// it is not available): time a virtual machine's CPUs waited while the
// hypervisor ran other guests, a measure of neighbours' load.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// pools lists a node's live pool instances.
func pools(n *node) []*pool.Pool {
	var out []*pool.Pool
	dir := n.svc.Directory()
	for _, name := range dir.Names() {
		for _, ref := range dir.Lookup(name) {
			if p, ok := ref.Local.(*pool.Pool); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// collectLayers gathers the per-layer metrics after a traced window:
// the tracer's spans, the daemon's public counters, the codec probe, and
// the runtime window. Workload-specific entries are added by the caller.
func collectLayers(tr *tracer, nodes []*node, probe *codecProbe, o *outcome) map[string]float64 {
	l := map[string]float64{}
	for _, m := range perLayer {
		l[m.name] = 0
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	l["registry.select_p50_us"] = tr.sel.QuantileUS(0.50)
	l["registry.select_p99_us"] = tr.sel.QuantileUS(0.99)
	l["registry.update_batch_us"] = us(tr.updBatch.Mean())
	l["registry.take_us"] = us(tr.take.Mean())
	l["registry.release_us"] = us(tr.release.Mean())
	l["registry.replica_apply_us"] = us(tr.replica.Mean())
	l["registry.bytes_per_machine"] = o.bytesPerMachine

	var allocs, misses int
	var scanned int64
	var queries, fragments int
	for _, n := range nodes {
		for _, p := range pools(n) {
			a, m, s := p.Stats()
			allocs += a
			misses += m
			scanned += s
		}
		if ev := n.svc.Events(); ev != nil {
			b, a, r := ev.Stats()
			l["pool.apply_batches"] += float64(b)
			l["pool.apply_events"] += float64(a)
			l["pool.resyncs"] += float64(r)
		}
		st := n.svc.Stats()
		queries += st.Queries
		fragments += st.Fragments
		f := n.fed.Snapshot()
		l["poolmgr.directed_hops"] += float64(f.Directed)
		l["poolmgr.directed_miss"] += float64(f.DirectedMisses)
		l["poolmgr.fanouts"] += float64(f.Fanouts)
		l["registry.watch_events"] += float64(f.WatchEvents)
		l["registry.watch_resyncs"] += float64(f.WatchResyncs)
		if n.jstats != nil {
			c := n.jstats.Snapshot()
			l["journal.fsyncs"] += float64(c.Fsyncs)
			l["journal.fsync_ms"] += float64(c.FsyncTotal) / 1e6
			l["journal.snapshots"] += float64(c.Snapshots)
			l["journal.replay_ms"] += float64(c.ReplayDuration) / 1e6
			l["journal.replay_records"] += float64(c.ReplayRecords)
		}
		for c, counts := range n.over.Snapshot() {
			lane := actmetrics.ClassNames[c]
			l["wire."+lane+".shed"] += float64(counts.Shed)
			l["wire."+lane+".expired"] += float64(counts.Expired)
			l["wire."+lane+".done"] += float64(counts.Done)
		}
	}
	if l["journal.fsyncs"] > 0 {
		l["journal.fsync_ms"] /= l["journal.fsyncs"]
	}
	if allocs > 0 {
		l["pool.scanned_per_alloc"] = float64(scanned) / float64(allocs)
	}
	l["pool.misses"] = float64(misses)
	if queries > 0 {
		l["querymgr.fragments_per_query"] = float64(fragments) / float64(queries)
	}
	l["journal.lease_append_p50_us"] = tr.leaseAppend.QuantileUS(0.50)
	l["journal.lease_append_p99_us"] = tr.leaseAppend.QuantileUS(0.99)

	l["pool.alloc_self_us"] = us(tr.poolSelf.Mean())
	l["poolmgr.resolve_p50_us"] = tr.resolve.QuantileUS(0.50)
	l["poolmgr.resolve_p99_us"] = tr.resolve.QuantileUS(0.99)
	l["poolmgr.resolve_fail"] = float64(tr.resolveFail.Load())
	l["stage.hop_us"] = us(tr.hop.Mean())

	if probe != nil {
		l["querymgr.parse_us"] = us(probe.parse.Mean())
		l["wire.encode_us"] = us(probe.enc.Mean())
		l["wire.decode_us"] = us(probe.dec.Mean())
		if ops := probe.ops.Load(); ops > 0 {
			l["wire.bytes_per_op"] = float64(probe.bytes.Load()) / float64(ops)
		}
	}
	for c := range o.runtime.depthMax {
		l["wire."+actmetrics.ClassNames[c]+".depth_max"] = float64(o.runtime.depthMax[c])
	}
	l["runtime.gc_pause_p99_ms"] = o.runtime.gcPauseP99 * 1e3
	l["runtime.gc_cycles"] = float64(o.runtime.gcCycles)
	return l
}

// pairs holds sampled operations of one type, each sent beside a ping on
// the same connection at the same due time, so both share the moment's
// generator lateness, scheduling, loopback delay and any stall. server
// is the server-side span the tracer attributed to the operation.
type pairs struct {
	mu               sync.Mutex
	n                int
	op, ping, server time.Duration
}

func (p *pairs) add(op, ping, server time.Duration) {
	p.mu.Lock()
	p.n++
	p.op += op
	p.ping += ping
	p.server += server
	p.mu.Unlock()
}

// means returns the mean operation, ping and server time, in µs.
func (p *pairs) means() (op, ping, server float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		return 0, 0, 0
	}
	n := 1e3 * float64(p.n)
	return float64(p.op) / n, float64(p.ping) / n, float64(p.server) / n
}

// pairedPing pings c once, timed from due, and delivers the latency (or
// -1 on failure) on the returned channel.
func pairedPing(c *core.Client, due time.Time) <-chan time.Duration {
	out := make(chan time.Duration, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), grantTimeout)
		defer cancel()
		if err := c.PingContext(ctx); err != nil {
			out <- -1
			return
		}
		out <- time.Since(due)
	}()
	return out
}

// accounted records how much of one operation type's end-to-end time
// the layers explain: transit plus the codec, parse and server-side
// spans, over the operation's own time (all in µs). It records transit
// and the ratio in l and returns the ratio.
func accounted(l map[string]float64, op string, e2e, transit, server float64) float64 {
	l["wire.transit_us"] = transit
	codec := l["wire.encode_us"] + l["wire.decode_us"]
	ratio := (transit + codec + l["querymgr.parse_us"] + server) / e2e
	l["trace.accounted"] = ratio
	logf("trace self-check: %s %.0fus = transit %.0f + codec %.0f + parse %.0f + server %.0f (%.0f%%)",
		op, e2e, transit, codec, l["querymgr.parse_us"], server, 100*ratio)
	return ratio
}

// checkAccounted fails a traced run whose layers explain less than 90%
// or more than 110% of the operation's time.
func checkAccounted(op string, ratio float64) error {
	if ratio < 0.9 || ratio > 1.1 || math.IsNaN(ratio) {
		return fmt.Errorf("trace self-check: %s layers account for %.0f%% of the traced time (want 90..110%%)", op, 100*ratio)
	}
	return nil
}

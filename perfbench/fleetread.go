package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/wire"
)

// fleet-read: paged selects of varying selectivity beside the monitor's
// writes, with a second node mirroring one domain over the watch stream.
const (
	readFleet    = 10000
	readRate     = 10.0 // selects/s, about a seventh of the parent's capacity: little queueing
	readPage     = 256  // records per page; every select asks for a full page
	readCapConns = 2    // in-flight selects per connection while measuring capacity
	markerEvery  = 20 * time.Millisecond
	mirrorDomain = "upc"
	syncTimeout  = 10 * time.Second
)

// readFilters span 8% to 100% of a DefaultFleetSpec fleet; filterNames
// label each by its share of the fleet.
var filterNames = []string{"8pct", "25pct", "50pct", "75pct", "100pct"}

var readFilters = []string{
	"punch.rsrc.arch = sun\npunch.rsrc.owner = ece", // 1 in 12
	"punch.rsrc.arch = hp",                          // 1 in 4
	"punch.rsrc.domain = upc",                       // 1 in 2
	"punch.rsrc.license = spice",                    // 3 in 4
	"",                                              // all
}

// replica is the second node: a white-pages replica fed by
// registry.StartRemoteWatch over its own connection to the source.
type replica struct {
	db    *registry.DB
	cli   *core.Client
	watch *registry.RemoteWatch
	fed   *metrics.FederationStats
}

func startReplica(src *node, tr *tracer) (*replica, error) {
	r := &replica{fed: metrics.NewFederationStats()}
	backend, err := registry.OpenBackend(registry.BackendSharded, 0)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		backend = tr.backend(backend, true)
	}
	r.db = registry.NewDBWith(backend)
	if r.cli, err = core.Dial(src.srv.Addr(), netsim.Local()); err != nil {
		return nil, err
	}
	r.watch, err = registry.StartRemoteWatch(registry.RemoteWatchConfig{
		Transport: r.cli, Replica: r.db, Filter: route.Filter(mirrorDomain), Stats: r.fed,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), syncTimeout)
	defer cancel()
	if err := r.watch.WaitSynced(ctx); err != nil {
		r.close()
		return nil, fmt.Errorf("replica sync: %w", err)
	}
	return r, nil
}

func (r *replica) close() {
	if r.watch != nil {
		r.watch.Close()
	}
	if r.cli != nil {
		_ = r.cli.Close()
	}
}

// lagProbe times source mutations until they are visible in the replica:
// a marker parameter is set on a mirrored source record and the
// replica's own change stream reports the record's arrival.
type lagProbe struct {
	lag     *hist
	mu      sync.Mutex
	pending map[int]time.Time // marker -> when it was written
	stop    chan struct{}
	done    sync.WaitGroup
}

const markerParam = "perfbench_marker"

func startLagProbe(rep *registry.DB) *lagProbe {
	p := &lagProbe{lag: &hist{}, pending: make(map[int]time.Time), stop: make(chan struct{})}
	sub := rep.Watch(0)
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		defer sub.Close()
		for {
			select {
			case <-p.stop:
				return
			case <-sub.Ready():
			}
			evs, _ := sub.Poll()
			for _, ev := range evs {
				if ev.Kind != registry.EventAdded {
					continue
				}
				m, err := rep.Get(ev.Name)
				if err != nil {
					continue
				}
				seq, err := strconv.Atoi(m.Policy.Params[markerParam].Str)
				if err != nil {
					continue
				}
				p.mu.Lock()
				if t0, ok := p.pending[seq]; ok {
					delete(p.pending, seq)
					p.lag.Observe(time.Since(t0))
				}
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// write marks one source record.
func (p *lagProbe) write(src *registry.DB, name string, seq int) error {
	p.mu.Lock()
	p.pending[seq] = time.Now()
	p.mu.Unlock()
	return src.SetParam(name, markerParam, query.StrAttr(strconv.Itoa(seq)))
}

// finish waits for outstanding markers and returns how many never
// arrived.
func (p *lagProbe) finish(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		left := len(p.pending)
		p.mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			close(p.stop)
			p.done.Wait()
			return left
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// expected holds each filter's matching names in registry order.
func expectedPages(db *registry.DB) ([][]string, error) {
	out := make([][]string, len(readFilters))
	for i, text := range readFilters {
		q, err := query.ParseBasic(text)
		if err != nil {
			return nil, err
		}
		db.Walk(func(m *registry.Machine) bool {
			if m.Attrs().MatchRsrc(q) {
				out[i] = append(out[i], m.Static.Name)
			}
			return true
		})
		sort.Strings(out[i])
	}
	return out, nil
}

func runFleetRead(rc *runCtx, tr *tracer) (*outcome, error) {
	fleet, err := registry.DefaultFleetSpec(readFleet).Build(time.Now())
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var (
		src *node
		rep *replica
	)
	for i := 0; i < rc.setups; i++ {
		settle()
		start := time.Now()
		if src, err = startNode(nodeSpec{machines: fleet, trace: tr}); err != nil {
			return nil, err
		}
		if rep, err = startReplica(src, tr); err != nil {
			src.close()
			return nil, err
		}
		o.setupDone(start)
		if i < rc.setups-1 {
			rep.close()
			src.close()
		}
	}
	defer src.close()
	defer rep.close()
	fleet = nil
	if err := o.measureHeap(readFleet, src.db, rep.db); err != nil {
		return nil, err
	}

	want, err := expectedPages(src.db)
	if err != nil {
		return nil, err
	}
	mirrored := want[2]
	d, err := newDesk([]*node{src, src}, nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := d.requireCodec(); err != nil {
		return nil, err
	}
	if tr != nil {
		d.probe = &codecProbe{}
	}

	var (
		selects  = &hist{}
		byFilter = make([]hist, len(readFilters))
		records  atomic.Int64
		mu       sync.Mutex
		rng      = rand.New(rand.NewSource(rc.seed))
	)
	selectOnce := func(due time.Time, f, page, conn int) error {
		c := d.clients[conn]
		ctx, cancel := context.WithDeadline(context.Background(), due.Add(grantTimeout))
		defer cancel()
		ms, total, err := c.SelectPage(ctx, readFilters[f], readPage, page*readPage, false)
		if err != nil {
			return err
		}
		if err := checkPage(want[f], f, page, ms, total); err != nil {
			d.violate("%v", err)
		}
		records.Add(int64(len(ms)))
		if d.probe != nil && d.probe.sample() {
			req := wire.SelectRequest{Text: readFilters[f], Limit: readPage, Offset: page * readPage}
			reply := wire.SelectReply{Total: total, Records: wire.RecordSet{Machines: ms}}
			if err := d.probe.roundTrip(wire.Binary2, wire.TypeSelect, req, &wire.SelectRequest{}, reply, &wire.SelectReply{}); err != nil {
				d.violate("codec probe: %v", err)
			}
		}
		return nil
	}

	// Capacity first, on the freshly set-up node, so every seed measures
	// the same daemon state.
	if tr == nil {
		var capMu sync.Mutex
		capRng := rand.New(rand.NewSource(rc.seed + 1))
		capFilters := newFilterCycle()
		o.capacity, err = closedLoop(readCapConns*len(d.clients), capDur, func(w int) error {
			capMu.Lock()
			f := capFilters.next()
			page := capRng.Intn(len(want[f]) / readPage)
			capMu.Unlock()
			return selectOnce(time.Now(), f, page, w%len(d.clients))
		})
		if err != nil {
			return nil, fmt.Errorf("capacity: %w", err)
		}
		d.resetStats()
		records.Store(0)
	}

	lag := startLagProbe(rep.db)
	rt := startRuntimeWindow(overloadStats([]*node{src}, tr)...)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d.pings(rc.dur)
	}()
	markerErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		seq := 0
		fixedRate(markerEvery, rc.dur, func(time.Time) {
			mu.Lock()
			seq++
			s := seq
			mu.Unlock()
			if err := lag.write(src.db, mirrored[s%len(mirrored)], s); err != nil {
				select {
				case markerErr <- err:
				default:
				}
			}
		})
	}()
	type pick struct{ f, page, conn int }
	filters := newFilterCycle()
	draw := func() pick {
		f := filters.next()
		return pick{f, rng.Intn(len(want[f]) / readPage), rng.Intn(len(d.clients))}
	}
	arrivals, dropped := openLoop(rng, readRate, rc.dur, o.late, draw, func(due time.Time, p pick) {
		d.attempted.Add(1)
		if err := selectOnce(due, p.f, p.page, p.conn); err != nil {
			d.fail(err)
			selects.Miss()
			byFilter[p.f].Miss()
			return
		}
		lat := time.Since(due)
		selects.Observe(lat)
		byFilter[p.f].Observe(lat)
	})
	wg.Wait()
	o.runtime = rt.end()
	wireBytes := d.wireBytes()
	delivered := records.Load()
	select {
	case err := <-markerErr:
		return nil, fmt.Errorf("marker write: %w", err)
	default:
	}
	if lost := lag.finish(syncTimeout); lost > 0 {
		o.violations = append(o.violations, fmt.Sprintf("%d source mutations never reached the replica", lost))
	}

	if tr != nil {
		o.layers = collectLayers(tr, []*node{src}, d.probe, o)
		if delivered > 0 {
			o.layers["registry.select_copied_per_returned"] = float64(tr.selCopied.Load()) / float64(delivered)
		}
		f := rep.fed.Snapshot()
		o.layers["registry.watch_events"] = float64(f.WatchEvents)
		o.layers["registry.watch_resyncs"] = float64(f.WatchResyncs)
		// The backend seam carries no request id, so a page's server time
		// is the mean select span times the selects per page, and transit
		// is the mean of the ping stream on the same connections. A ping
		// paired with each page shares the page's CPU contention, which the
		// select span already holds, so it over-counts: fleet-read reports
		// the ratio and does not enforce it.
		if n := selects.Count(); n > 0 {
			serverUS := float64(tr.sel.Mean()) / 1e3 * float64(tr.sel.Ops()) / float64(n)
			accounted(o.layers, "select", float64(selects.Mean())/1e3, float64(d.ping.Mean())/1e3, serverUS)
		}
	}

	// The replica must equal the source's mirrored slice once the source
	// stops writing: close the source service (its monitor) and wait.
	o.violations = append(o.violations, d.finishReads()...)
	src.svc.Close()
	if err := waitMirror(src.db, rep.db, syncTimeout); err != nil {
		o.violations = append(o.violations, err.Error())
	}
	if dropped > 0 {
		o.violations = append(o.violations, fmt.Sprintf("%d of %d arrivals dropped at the outstanding cap", dropped, arrivals))
	}

	o.attempted, o.failed = int(d.attempted.Load()), int(d.failed.Load())
	o.primary = selects
	o.control = d.control
	o.wireBytes, o.ops = wireBytes, float64(selects.Ops())
	// The primary figure weighs every selectivity alike: the mean of the
	// filters' own medians, so a change to the cost of any one moves it.
	var sum float64
	for f := range byFilter {
		p50 := byFilter[f].QuantileMS(0.50)
		sum += p50
		o.detail("select_p50_ms_"+filterNames[f], "ms", p50)
	}
	o.primaryP50 = sum / float64(len(byFilter))
	o.detail("select_p50_ms", "ms", selects.QuantileMS(0.50))
	o.detail("select_p99_ms", "ms", selects.QuantileMS(0.99))
	o.detail("select_wire_bytes_per_record", "B", wireBytes/float64(delivered))
	o.detail("replica_lag_p99_ms", "ms", lag.lag.QuantileMS(0.99))
	o.count("selects", int64(selects.Count()))
	o.count("records", delivered)
	o.count("replica_markers", int64(lag.lag.Count()))
	return o, nil
}

// checkPage verifies one select page against the filter's expected
// matches: the total, the page bounds, and each record in order.
func checkPage(want []string, f, page int, ms []*registry.Machine, total int) error {
	if total != len(want) {
		return fmt.Errorf("select %q: total %d, want %d", readFilters[f], total, len(want))
	}
	lo := page * readPage
	hi := min(lo+readPage, len(want))
	if len(ms) != hi-lo {
		return fmt.Errorf("select %q page %d: %d records, want %d", readFilters[f], page, len(ms), hi-lo)
	}
	q, err := query.ParseBasic(readFilters[f])
	if err != nil {
		return err
	}
	for i, m := range ms {
		if m.Static.Name != want[lo+i] {
			return fmt.Errorf("select %q page %d record %d: %s, want %s", readFilters[f], page, i, m.Static.Name, want[lo+i])
		}
		if !m.Attrs().MatchRsrc(q) {
			return fmt.Errorf("select %q: record %s does not match", readFilters[f], m.Static.Name)
		}
	}
	return nil
}

// finishReads returns the desk's violations and closes its connections.
func (d *desk) finishReads() []string {
	d.mu.Lock()
	bad := append([]string(nil), d.violations...)
	d.mu.Unlock()
	d.close()
	return bad
}

// waitMirror waits until the replica equals the source's mirrored slice.
func waitMirror(src, rep *registry.DB, timeout time.Duration) error {
	q, err := query.ParseBasic(route.Filter(mirrorDomain))
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for {
		diff := mirrorDiff(src, rep, q)
		if diff == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica differs from the source slice after sync: %s", diff)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func mirrorDiff(src, rep *registry.DB, q *query.Query) string {
	want := map[string]*registry.Machine{}
	src.Walk(func(m *registry.Machine) bool {
		if m.Attrs().MatchRsrc(q) {
			want[m.Static.Name] = m.Clone()
		}
		return true
	})
	if n := rep.Len(); n != len(want) {
		return fmt.Sprintf("%d records, want %d", n, len(want))
	}
	diff := ""
	rep.Walk(func(m *registry.Machine) bool {
		w, ok := want[m.Static.Name]
		if !ok {
			diff = "unexpected record " + m.Static.Name
			return false
		}
		if !sameRecord(w, m) {
			diff = "record " + m.Static.Name + " differs"
			return false
		}
		return true
	})
	return diff
}

func sameRecord(a, b *registry.Machine) bool {
	if a.State != b.State || a.Static != b.Static || a.Access != b.Access || a.TakenBy != b.TakenBy {
		return false
	}
	da, db := a.Dynamic, b.Dynamic
	if da.Load != db.Load || da.ActiveJobs != db.ActiveJobs || da.FreeMemory != db.FreeMemory ||
		da.FreeSwap != db.FreeSwap || da.ServiceFlag != db.ServiceFlag || !da.LastUpdate.Equal(db.LastUpdate) {
		return false
	}
	pa, pb := a.Policy, b.Policy
	if pa.ShadowPoolRef != pb.ShadowPoolRef || pa.UsagePolicy != pb.UsagePolicy ||
		fmt.Sprint(pa.UserGroups) != fmt.Sprint(pb.UserGroups) || fmt.Sprint(pa.ToolGroups) != fmt.Sprint(pb.ToolGroups) ||
		len(pa.Params) != len(pb.Params) {
		return false
	}
	for k, v := range pa.Params {
		if pb.Params[k].Str != v.Str {
			return false
		}
	}
	return true
}

// filterMix gives every selectivity the same share of reads, as counts
// per cycle: nothing here weighs one filter over another. Every run
// draws the same mix; only pages, connections and arrival times depend
// on the seed.
var filterMix = []int{1, 1, 1, 1, 1}

// filterCycle yields filter indices in a fixed interleaved order with
// the filterMix proportions.
type filterCycle struct {
	order []int
	i     int
}

func newFilterCycle() *filterCycle {
	var order []int
	for i, n := range filterMix {
		for j := 0; j < n; j++ {
			order = append(order, i)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &filterCycle{order: order}
}

func (c *filterCycle) next() int {
	f := c.order[c.i%len(c.order)]
	c.i++
	return f
}

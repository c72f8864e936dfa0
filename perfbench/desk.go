package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/wire"
)

// Desktop sessions: grant, an exponential hold with periodic renewals,
// then release — the paper's network-desktop usage, driven open loop.
const (
	grantTimeout = 2 * time.Second
	meanHold     = 400 * time.Millisecond
	maxHold      = 2 * time.Second
	renewEvery   = 150 * time.Millisecond
	pingEvery    = 50 * time.Millisecond
)

// poolKey is one pool the sessions draw from: an arch × owner pair with
// the machines' domain pinned, or a composite over two arches.
type poolKey struct {
	archs  []string
	owner  string
	domain string
}

func (k poolKey) text() string {
	return fmt.Sprintf("punch.rsrc.arch = %s\npunch.rsrc.owner = %s\npunch.rsrc.domain = %s",
		strings.Join(k.archs, " | "), k.owner, k.domain)
}

func (k poolKey) criteria() string {
	return fmt.Sprintf("punch.rsrc.arch = %s\npunch.rsrc.owner = %s\npunch.rsrc.domain = %s", k.archs[0], k.owner, k.domain)
}

// matches reports whether a white-pages record satisfies the key.
func (k poolKey) matches(m *registry.Machine) bool {
	p := m.Policy.Params
	if p["owner"].Str != k.owner || p["domain"].Str != k.domain {
		return false
	}
	for _, a := range k.archs {
		if p["arch"].Str == a {
			return true
		}
	}
	return false
}

// fleetKeys returns the 12 disjoint pool keys of a DefaultFleetSpec fleet
// (each arch lives in exactly one domain there) and the 3 composite keys
// over the two purdue arches.
func fleetKeys() (simple, composite []poolKey) {
	spec := registry.DefaultFleetSpec(1)
	for _, owner := range spec.Owners {
		for i, arch := range spec.Archs {
			domain := spec.Domains[i%len(spec.Domains)]
			simple = append(simple, poolKey{archs: []string{arch}, owner: owner, domain: domain})
		}
	}
	for _, owner := range spec.Owners {
		composite = append(composite, poolKey{archs: []string{"sun", "alpha"}, owner: owner, domain: "purdue"})
	}
	return simple, composite
}

// desk drives desktop sessions against one or more nodes, one
// connection per node, and checks every grant as it lands.
type desk struct {
	nodes    []*node
	clients  []*core.Client
	owner    map[string]int // domain -> index of the owning node
	stats    *metrics.WireStats
	wireBase int64 // bytes moved before the measured window

	grant, xgrant, control, ping *hist
	probe                        *codecProbe // traced runs: codec and parse timing
	tr                           *tracer     // traced runs: the daemon's seams
	pairs                        pairs       // traced runs: sampled operations beside a ping

	attempted, failed atomic.Int64

	mu         sync.Mutex
	held       map[string]string // machine -> lease id (the client-side ledger)
	violations []string
}

func newDesk(nodes []*node, owner map[string]int) (*desk, error) {
	d := &desk{
		nodes: nodes, owner: owner, stats: &metrics.WireStats{},
		grant: &hist{}, xgrant: &hist{}, control: &hist{}, ping: &hist{},
		held: make(map[string]string),
	}
	for _, n := range nodes {
		c, err := n.dial(d.stats)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

func (d *desk) close() {
	for _, c := range d.clients {
		_ = c.Close()
	}
}

// fail counts a failed operation and reports the first few.
func (d *desk) fail(err error) {
	if n := d.failed.Add(1); n <= 3 {
		logf("operation failed: %v", err)
	}
}

func (d *desk) violate(format string, args ...any) {
	d.mu.Lock()
	if len(d.violations) < 20 {
		d.violations = append(d.violations, fmt.Sprintf(format, args...))
	}
	d.mu.Unlock()
}

// sessionPlan is everything random about one session, drawn from the
// seeded stream at arrival so the schedule depends on the seed alone.
type sessionPlan struct {
	key    poolKey
	target int // node the desktop asks
	hold   time.Duration
}

// planner draws session plans: Zipf-skewed keys, a share of composite
// queries, and a share sent to the node that does not own the domain.
type planner struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	simple    []poolKey
	composite []poolKey
	nodes     int
	owner     map[string]int
	xdomain   float64
}

func newPlanner(rng *rand.Rand, nodes int, owner map[string]int, xdomain float64) *planner {
	// Key popularity follows fleetKeys' fixed order, so the load each node
	// and pool sees is the same for every seed.
	simple, composite := fleetKeys()
	return &planner{rng: rng, zipf: newZipf(rng, len(simple)), simple: simple, composite: composite,
		nodes: nodes, owner: owner, xdomain: xdomain}
}

func (p *planner) next() sessionPlan {
	var key poolKey
	if p.rng.Float64() < 0.10 {
		key = p.composite[p.rng.Intn(len(p.composite))]
	} else {
		key = p.simple[p.zipf.Uint64()]
	}
	target := p.owner[key.domain]
	if p.nodes > 1 && p.rng.Float64() < p.xdomain {
		target = (target + 1) % p.nodes
	}
	hold := time.Duration(p.rng.ExpFloat64() * float64(meanHold))
	if hold > maxHold {
		hold = maxHold
	}
	return sessionPlan{key: key, target: target, hold: hold}
}

// session runs one planned session whose grant was due at due.
func (d *desk) session(due time.Time, plan sessionPlan) {
	var ping <-chan time.Duration
	sampled := d.probe != nil && d.probe.sample()
	if sampled {
		ping = pairedPing(d.clients[plan.target], due)
	}
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(grantTimeout))
	g, err := d.clients[plan.target].RequestContext(ctx, "", plan.key.text())
	cancel()
	lat := time.Since(due)
	d.attempted.Add(1)
	owner := d.owner[plan.key.domain]
	cross := plan.target != owner
	if err != nil {
		d.fail(err)
		d.grant.Miss()
		if cross {
			d.xgrant.Miss()
		}
		if ping != nil {
			<-ping
		}
		return
	}
	d.grant.Observe(lat)
	if cross {
		d.xgrant.Observe(lat)
	}
	d.checkGrant(g, plan.key, owner)
	if d.tr != nil {
		// Every grant takes its resolve span out of the tracer; a sampled
		// one pairs it with its ping.
		resolved := d.tr.pop(d.tr.resolved, g.Lease.ID)
		if sampled {
			if p := <-ping; p >= 0 {
				d.pairs.add(lat, p, resolved)
			}
		}
	}
	if sampled {
		if err := d.probe.grant(plan.key.text(), g); err != nil {
			d.violate("codec probe: %v", err)
		}
	}

	// Renewals go to the node whose pool holds the lease: the granting
	// node does not forward renewals of delegated leases.
	granted := time.Now()
	end := granted.Add(plan.hold)
	for next := granted.Add(renewEvery); next.Before(end); next = next.Add(renewEvery) {
		time.Sleep(time.Until(next))
		d.control1(next, func() error { return d.clients[owner].Renew(g) })
	}
	time.Sleep(time.Until(end))
	d.unhold(g)
	d.control1(end, func() error { return d.clients[plan.target].Release(g) })
}

// checkGrant verifies a grant against the owner's white-pages record and
// the ledger of live leases.
func (d *desk) checkGrant(g *core.Grant, key poolKey, owner int) {
	m, err := d.nodes[owner].db.Get(g.Lease.Machine)
	if err != nil {
		d.violate("grant %s: machine %s not in the owner's registry: %v", g.Lease.ID, g.Lease.Machine, err)
	} else if !key.matches(m) {
		d.violate("grant %s: machine %s does not satisfy %q", g.Lease.ID, g.Lease.Machine, key.text())
	}
	d.mu.Lock()
	if prev, busy := d.held[g.Lease.Machine]; busy {
		d.mu.Unlock()
		d.violate("machine %s granted to %s while lease %s is live", g.Lease.Machine, g.Lease.ID, prev)
		return
	}
	d.held[g.Lease.Machine] = g.Lease.ID
	d.mu.Unlock()
}

// unhold drops a lease from the ledger just before its release is sent,
// so a legitimate re-grant after the release can never look double.
func (d *desk) unhold(g *core.Grant) {
	d.mu.Lock()
	if d.held[g.Lease.Machine] == g.Lease.ID {
		delete(d.held, g.Lease.Machine)
	}
	d.mu.Unlock()
}

func (d *desk) control1(due time.Time, op func() error) {
	d.attempted.Add(1)
	if err := op(); err != nil {
		d.fail(err)
		d.control.Miss()
		return
	}
	d.control.Observe(time.Since(due))
}

// pings runs the fixed-rate ping stream on every connection for dur.
func (d *desk) pings(dur time.Duration) {
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *core.Client) {
			defer wg.Done()
			fixedRate(pingEvery, dur, func(due time.Time) {
				ctx, cancel := context.WithTimeout(context.Background(), grantTimeout)
				err := c.PingContext(ctx)
				cancel()
				d.attempted.Add(1)
				if err != nil {
					d.fail(err)
					d.control.Miss()
					d.ping.Miss()
					return
				}
				lat := time.Since(due)
				d.control.Observe(lat)
				d.ping.Observe(lat)
			})
		}(c)
	}
	wg.Wait()
}

// churn drives open-loop sessions at rate for dur beside the ping stream.
func (d *desk) churn(seed int64, rate float64, dur time.Duration, xdomain float64, late *hist) (arrivals, dropped int) {
	rng := rand.New(rand.NewSource(seed))
	plan := newPlanner(rng, len(d.nodes), d.owner, xdomain)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.pings(dur)
	}()
	arrivals, dropped = openLoop(rng, rate, dur, late, plan.next, d.session)
	wg.Wait()
	return arrivals, dropped
}

// capacity measures saturated grant throughput: workers per connection
// repeat grant-then-release on the node's own keys, back to back.
func (d *desk) capacity(seed int64, perConn int, dur time.Duration) (float64, error) {
	simple, _ := fleetKeys()
	own := make([][]poolKey, len(d.clients))
	for _, k := range simple {
		i := d.owner[k.domain]
		own[i] = append(own[i], k)
	}
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	rate, err := closedLoop(perConn*len(d.clients), dur, func(w int) error {
		i := w % len(d.clients)
		mu.Lock()
		key := own[i][rng.Intn(len(own[i]))]
		mu.Unlock()
		g, err := d.clients[i].RequestContext(context.Background(), "", key.text())
		if err != nil {
			return err
		}
		d.checkGrant(g, key, i)
		d.unhold(g)
		return d.clients[i].Release(g)
	})
	if err != nil {
		return 0, fmt.Errorf("capacity: %w", err)
	}
	return rate, nil
}

// requireCodec checks that every connection negotiated binary2, the
// codec the daemon prefers and the one the codec probe times.
func (d *desk) requireCodec() error {
	for i, c := range d.clients {
		if got := c.CodecName(); got != wire.Binary2.Name() {
			return fmt.Errorf("connection %d negotiated %q, want %q", i, got, wire.Binary2.Name())
		}
	}
	return nil
}

// wireBytes is every byte the generator's connections moved since the
// last resetStats.
func (d *desk) wireBytes() float64 {
	var total int64
	for _, c := range d.stats.Snapshot() {
		total += c.BytesIn + c.BytesOut
	}
	return float64(total - d.wireBase)
}

// resetStats starts the measured window's byte count.
func (d *desk) resetStats() { d.wireBase += int64(d.wireBytes()) }

// finish runs the end-of-run checks: the ledger is empty, every pool is
// fully free once the clients released everything they hold — except for
// exactly orphans leases the daemon granted to callers that had already
// given up — and once the nodes are shut down no registry record is left
// marked taken. It closes the connections and the nodes.
func (d *desk) finish(nodes []*node, orphans int64) []string {
	d.mu.Lock()
	bad := append([]string(nil), d.violations...)
	if len(d.held) > 0 {
		bad = append(bad, fmt.Sprintf("%d leases still in the ledger after the final releases", len(d.held)))
	}
	d.mu.Unlock()
	var leased int64
	var busy []string
	for _, n := range nodes {
		for _, p := range pools(n) {
			if p.Free() != p.Size() {
				leased += int64(p.Size() - p.Free())
				busy = append(busy, fmt.Sprintf("pool %s: %d of %d free after the final releases", p.ID(), p.Free(), p.Size()))
			}
		}
	}
	if leased != orphans {
		bad = append(bad, fmt.Sprintf("%d machines leased after the final releases, want %d orphaned grants", leased, orphans))
		bad = append(bad, busy...)
	}
	d.close()
	closeAll(nodes)
	for _, n := range nodes {
		if t := n.takenMarks(); t > 0 {
			bad = append(bad, fmt.Sprintf("%d registry records still marked taken after shutdown", t))
		}
	}
	return bad
}

// splitFleet builds a DefaultFleetSpec fleet and splits it by domain.
func splitFleet(n int, domains []string) ([][]*registry.Machine, error) {
	machines, err := registry.DefaultFleetSpec(n).Build(time.Now())
	if err != nil {
		return nil, err
	}
	out := make([][]*registry.Machine, len(domains))
	for _, m := range machines {
		for i, d := range domains {
			if route.MachineDomain(m) == d {
				out[i] = append(out[i], m)
			}
		}
	}
	return out, nil
}

// layers collects the traced session window's per-layer metrics and
// checks that they account for the grant's end-to-end mean. leaseOps is
// the number of lease ops journaled in the window; dir is scratch space
// for sizing them.
func (d *desk) layers(tr *tracer, nodes []*node, o *outcome, leaseOps int, dir string) (map[string]float64, error) {
	l := collectLayers(tr, nodes, d.probe, o)
	// Lease-op bytes journaled per grant: the window's lease ops, at the
	// mean record size of a sample of them, over the grants it returned.
	size, err := tr.ops.recordBytes(filepath.Join(dir, "opsize"))
	if err != nil {
		return nil, fmt.Errorf("sizing lease ops: %w", err)
	}
	if n := d.grant.Count(); n > 0 {
		l["journal.bytes_per_grant"] = size * float64(leaseOps) / float64(n)
	}
	// Each sampled grant is paired with a ping sent on its connection at
	// its due time, and with the resolve that returned its lease.
	e2e, transit, server := d.pairs.means()
	if e2e == 0 {
		return nil, fmt.Errorf("trace self-check: no grant was sampled")
	}
	return l, checkAccounted("grant", accounted(l, "grant", e2e, transit, server))
}

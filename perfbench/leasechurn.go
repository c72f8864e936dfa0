package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"actyp/internal/core"
	"actyp/internal/registry"
	"actyp/internal/route"
)

// lease-churn: desktop sessions against two partitioned nodes.
const (
	churnFleet   = 10000 // DefaultFleetSpec machines, split purdue/upc
	churnRate    = 400.0 // sessions/s: below the rate at which the bulk lane sheds during sweeps
	churnXDomain = 0.20  // share of sessions sent to the non-owner node
	capPerConn   = 4     // in-flight grants per connection while measuring capacity
	capDur       = 2 * time.Second
	// snapshotEvery gives the journal a snapshot and compaction cycle
	// every second, in step with the monitor sweep, so every one-second
	// latency window holds the same background work.
	snapshotEvery = time.Second
	// phaseLead is how far ahead of set-up the first pinned task starts:
	// long enough to populate a node before its service starts.
	phaseLead = 300 * time.Millisecond
)

// paced sums the nodes' phase waits.
func paced(nodes ...*node) time.Duration {
	var d time.Duration
	for _, n := range nodes {
		d += n.paced
	}
	return d
}

var churnDomains = []string{"purdue", "upc"}

// startPair boots two live nodes that split the fleet by domain — node
// na owns purdue, nb owns upc — with identical static ownership tables,
// journals, warm pools for the owned keys, and stage endpoints
// cross-dialed as federation peers.
func startPair(fleet [][]*registry.Machine, dir string, snapEvery time.Duration, tr *tracer) ([]*node, error) {
	names := []string{"na", "nb"}
	static := map[string]string{"purdue": "na-0", "upc": "nb-0"}
	members := []string{"na-0", "nb-0"}
	simple, _ := fleetKeys()
	var nodes []*node
	fail := func(err error) ([]*node, error) {
		closeAll(nodes)
		return nil, err
	}
	// The two nodes' monitor sweeps and snapshots start a quarter of a
	// period apart, in the same order every run.
	base := time.Now()
	quarter := snapshotEvery / 4
	for i, name := range names {
		rt := route.New(name + "-0")
		rt.Reload(static, members)
		var warm []string
		for _, k := range simple {
			if k.domain == churnDomains[i] {
				warm = append(warm, k.criteria())
			}
		}
		n, err := startNode(nodeSpec{
			name: name, machines: fleet[i], routes: rt,
			journalDir: filepath.Join(dir, name), snapEvery: snapEvery,
			warm: warm, stage: true, trace: tr,
			phase: &phase{base: base, monitorAt: phaseLead + time.Duration(2*i)*quarter, snapshotAt: phaseLead + time.Duration(2*i+1)*quarter},
		})
		if err != nil {
			return fail(fmt.Errorf("node %s: %w", name, err))
		}
		nodes = append(nodes, n)
	}
	if err := nodes[0].peerWith(nodes[1], tr); err != nil {
		return fail(err)
	}
	if err := nodes[1].peerWith(nodes[0], tr); err != nil {
		return fail(err)
	}
	return nodes, nil
}

func churnOwner() map[string]int { return map[string]int{"purdue": 0, "upc": 1} }

func runLeaseChurn(rc *runCtx, tr *tracer) (*outcome, error) {
	fleet, err := splitFleet(churnFleet, churnDomains)
	if err != nil {
		return nil, err
	}
	var nodes []*node
	o := newOutcome()
	for i := 0; i < rc.setups; i++ {
		dir := filepath.Join(rc.dir, fmt.Sprintf("churn-%d", i))
		settle()
		start := time.Now()
		nodes, err = startPair(fleet, dir, snapshotEvery, tr)
		if err != nil {
			return nil, err
		}
		o.setupDone(start, nodes...)
		if i < rc.setups-1 {
			closeAll(nodes)
			_ = os.RemoveAll(dir)
		}
	}
	defer closeAll(nodes)
	fleet = nil
	if err := o.measureHeap(churnFleet, nodes[0].db, nodes[1].db); err != nil {
		return nil, err
	}

	d, err := newDesk(nodes, churnOwner())
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := d.requireCodec(); err != nil {
		return nil, err
	}
	// Capacity is measured on the freshly set-up pair, so every seed
	// measures the same daemon state.
	if tr != nil {
		d.probe, d.tr = &codecProbe{}, tr
	} else if o.capacity, err = d.capacity(rc.seed, capPerConn, capDur); err != nil {
		return nil, err
	}
	d.resetStats()
	if tr != nil {
		tr.ops.start()
	}
	rt := startRuntimeWindow(overloadStats(nodes, tr)...)
	arrivals, dropped := d.churn(rc.seed, churnRate, rc.dur, churnXDomain, o.late)
	o.runtime = rt.end()
	wireOps := d.wireBytes()
	if tr != nil {
		if o.layers, err = d.layers(tr, nodes, o, tr.ops.stop(), rc.dir); err != nil {
			return nil, err
		}
	}
	o.violations = append(o.violations, d.finish(nodes, 0)...)
	if dropped > 0 {
		o.violations = append(o.violations, fmt.Sprintf("%d of %d arrivals dropped at the outstanding cap", dropped, arrivals))
	}

	o.attempted, o.failed = int(d.attempted.Load()), int(d.failed.Load())
	o.primary = d.grant
	o.control = d.control
	o.wireBytes, o.ops = wireOps, float64(d.grant.Ops())
	o.detail("grant_p50_ms", "ms", d.grant.QuantileMS(0.50))
	o.detail("grant_p99_ms", "ms", d.grant.QuantileMS(0.99))
	o.detail("xdomain_grant_p99_ms", "ms", d.xgrant.QuantileMS(0.99))
	o.detail("grant_capacity_per_s", "sessions/s", o.capacity)
	o.detail("control_p99_ms", "ms", d.control.QuantileMS(0.99))
	o.count("grants", int64(d.grant.Count()))
	o.count("xdomain_grants", int64(d.xgrant.Count()))
	o.count("control_ops", int64(d.control.Count()))
	return o, nil
}

// restart: cold boot from a journal, then the session mix on one node.
const (
	restartFleet  = 12000 // machines: the largest fleet whose resident heap read steadily
	restartLeases = 3000  // live leases in the journal
	restartRate   = 250.0 // sessions/s
	restartLead   = time.Second
)

// prepareRestart writes the journal a killed daemon leaves behind: a
// fleet, warm pools for every key, restartLeases live grants spread over
// the keys, then a crash after the last flush. It is not timed.
func prepareRestart(dir string) error {
	fleet, err := registry.DefaultFleetSpec(restartFleet).Build(time.Now())
	if err != nil {
		return err
	}
	simple, _ := fleetKeys()
	var warm []string
	for _, k := range simple {
		warm = append(warm, k.criteria())
	}
	n, err := startNode(nodeSpec{machines: fleet, journalDir: dir, snapEvery: time.Hour, warm: warm})
	if err != nil {
		return err
	}
	defer n.close()
	for i := 0; i < restartLeases; i++ {
		if _, err := n.svc.Request(simple[i%len(simple)].text()); err != nil {
			return fmt.Errorf("prepare grant %d: %w", i, err)
		}
	}
	if err := n.jnl.Flush(); err != nil {
		return err
	}
	n.jnl.Crash()
	n.jnl = nil
	return nil
}

func runRestart(rc *runCtx, tr *tracer) (*outcome, error) {
	prepared := filepath.Join(rc.dir, "prepared")
	start := time.Now()
	if err := prepareRestart(prepared); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	logf("prepare: %.3fs", time.Since(start).Seconds())
	o := newOutcome()
	var n *node
	for i := 0; i < rc.setups; i++ {
		dir := filepath.Join(rc.dir, fmt.Sprintf("boot-%d", i))
		if err := copyDir(prepared, dir); err != nil {
			return nil, err
		}
		settle()
		start := time.Now()
		var err error
		// Replay and restore run before the service starts, which starts
		// the monitor at a fixed point; snapshots keep actypd's default
		// period, so none falls inside the run.
		ph := &phase{base: start, monitorAt: restartLead, snapshotAt: restartLead}
		n, err = startNode(nodeSpec{journalDir: dir, snapEvery: time.Minute, trace: tr, phase: ph})
		if err != nil {
			return nil, err
		}
		o.setupDone(start, n)
		if got := n.recovery.Restored; got != restartLeases || len(n.replayed) != restartLeases {
			o.violations = append(o.violations, fmt.Sprintf("boot %d: restored %d of %d journaled leases (%d replayed)", i, got, restartLeases, len(n.replayed)))
		}
		if i < rc.setups-1 {
			n.close()
			_ = os.RemoveAll(dir)
		}
	}
	defer n.close()
	_ = os.RemoveAll(prepared)
	if err := o.measureHeap(restartFleet, n.db); err != nil {
		return nil, err
	}

	d, err := newDesk([]*node{n}, map[string]int{"purdue": 0, "upc": 0})
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := d.requireCodec(); err != nil {
		return nil, err
	}
	if tr != nil {
		d.probe, d.tr = &codecProbe{}, tr
	}
	// The restored leases are live: the ledger starts with them.
	for _, lr := range n.replayed {
		d.held[lr.Lease.Machine] = lr.Lease.ID
	}
	if tr != nil {
		tr.ops.start()
	}
	rt := startRuntimeWindow(overloadStats([]*node{n}, tr)...)
	arrivals, dropped := d.churn(rc.seed, restartRate, rc.dur, 0, o.late)
	o.runtime = rt.end()
	wireOps := d.wireBytes()
	if tr != nil {
		if o.layers, err = d.layers(tr, []*node{n}, o, tr.ops.stop(), rc.dir); err != nil {
			return nil, err
		}
		c := n.jstats.Snapshot()
		o.layers["journal.replay_ms"] = float64(c.ReplayDuration) / 1e6
		o.layers["journal.replay_records"] = float64(c.ReplayRecords)
		o.layers["core.recover_ms"] = float64(n.recoverTime) / 1e6
		o.layers["core.restored"] = float64(n.recovery.Restored)
		o.layers["core.reaped"] = float64(n.recovery.Reaped)
	} else if o.capacity, err = d.capacity(rc.seed, capPerConn, capDur); err != nil {
		return nil, err
	}
	// Hand the restored leases back, as their holders finally would.
	for _, lr := range n.replayed {
		g := &core.Grant{Lease: &lr.Lease}
		d.unhold(g)
		if err := d.clients[0].Release(g); err != nil {
			o.violations = append(o.violations, fmt.Sprintf("release of restored lease %s: %v", lr.Lease.ID, err))
		}
	}
	o.violations = append(o.violations, d.finish([]*node{n}, 0)...)
	if dropped > 0 {
		o.violations = append(o.violations, fmt.Sprintf("%d of %d arrivals dropped at the outstanding cap", dropped, arrivals))
	}

	o.attempted, o.failed = int(d.attempted.Load()), int(d.failed.Load())
	o.primary = d.grant
	o.control = d.control
	o.wireBytes, o.ops = wireOps, float64(d.grant.Ops())
	o.detail("grant_p50_ms", "ms", d.grant.QuantileMS(0.50))
	o.detail("grant_p99_ms", "ms", d.grant.QuantileMS(0.99))
	o.detail("control_p99_ms", "ms", d.control.QuantileMS(0.99))
	o.count("grants", int64(d.grant.Count()))
	o.count("restored_leases", int64(n.recovery.Restored))
	return o, nil
}

// copyDir copies a flat journal directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			return fmt.Errorf("copy %s: unexpected directory %s", src, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

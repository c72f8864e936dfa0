package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// overload: the paper's Section 7 cost model on one node. One grant
// costs overloadFleet x overloadScan of serialized scan, so capacity is
// set by the model, not the host.
const (
	overloadFleet    = 10000
	overloadScan     = 2 * time.Microsecond
	overloadRate     = 200.0 // grants/s offered, about 4x the modelled capacity
	overloadDeadline = 130 * time.Millisecond
	overloadHolders  = 4 // long-lived leases the renew stream keeps alive
	overloadCriteria = "punch.rsrc.arch = sun"
	overloadControl  = 25 * time.Millisecond // renew and ping period per connection
)

// sunKey is what every HomogeneousFleetSpec machine looks like.
var sunKey = poolKey{archs: []string{"sun"}, owner: "public", domain: "purdue"}

func runOverload(rc *runCtx, tr *tracer) (*outcome, error) {
	fleet, err := registry.HomogeneousFleetSpec(overloadFleet).Build(time.Now())
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var n *node
	for i := 0; i < rc.setups; i++ {
		settle()
		start := time.Now()
		n, err = startNode(nodeSpec{machines: fleet, scanCost: overloadScan, warm: []string{overloadCriteria}, trace: tr})
		if err != nil {
			return nil, err
		}
		o.setupDone(start)
		if i < rc.setups-1 {
			n.close()
		}
	}
	defer n.close()
	fleet = nil
	if err := o.measureHeap(overloadFleet, n.db); err != nil {
		return nil, err
	}

	d, err := newDesk([]*node{n, n}, nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := d.requireCodec(); err != nil {
		return nil, err
	}
	var holders []*core.Grant
	for i := 0; i < overloadHolders; i++ {
		g, err := d.clients[i%2].Request(overloadCriteria)
		if err != nil {
			return nil, fmt.Errorf("holder lease: %w", err)
		}
		d.checkGrant(g, sunKey, i%2)
		holders = append(holders, g)
	}
	var probe *codecProbe
	if tr != nil {
		probe = &codecProbe{}
	}

	var (
		grants                  = &hist{}
		good, received, refused atomic.Int64
		errOnce                 sync.Once
	)
	bulkBefore := n.over.Snapshot()[metrics.ClassBulk].Done
	rt := startRuntimeWindow(overloadStats([]*node{n}, tr)...)
	var wg sync.WaitGroup
	for i, c := range d.clients {
		wg.Add(2)
		go func(c *core.Client) {
			defer wg.Done()
			fixedRate(overloadControl, rc.dur, func(due time.Time) {
				ctx, cancel := context.WithTimeout(context.Background(), grantTimeout)
				err := c.PingContext(ctx)
				cancel()
				d.control1(due, func() error { return err })
				if err == nil {
					d.ping.Observe(time.Since(due))
				}
			})
		}(c)
		go func(c *core.Client, mine []*core.Grant) {
			defer wg.Done()
			var k atomic.Int64
			fixedRate(overloadControl, rc.dur, func(due time.Time) {
				g := mine[int(k.Add(1)-1)%len(mine)]
				d.control1(due, func() error { return c.Renew(g) })
			})
		}(c, holders[i*overloadHolders/2:(i+1)*overloadHolders/2])
	}
	rng := rand.New(rand.NewSource(rc.seed))
	arrivals, dropped := openLoop(rng, overloadRate, rc.dur, o.late, func() int { return rng.Intn(len(d.clients)) }, func(due time.Time, conn int) {
		ctx, cancel := context.WithDeadline(context.Background(), due.Add(overloadDeadline))
		g, err := d.clients[conn].RequestContext(ctx, "", overloadCriteria)
		cancel()
		d.attempted.Add(1)
		var busy *wire.BusyError
		switch {
		case err == nil:
		case errors.As(err, &busy), errors.Is(err, context.DeadlineExceeded):
			refused.Add(1)
			return
		default:
			d.failed.Add(1)
			errOnce.Do(func() { d.violate("grant failed: %v", err) })
			return
		}
		received.Add(1)
		lat := time.Since(due)
		if lat <= overloadDeadline {
			good.Add(1)
			grants.Observe(lat)
		} else {
			refused.Add(1)
		}
		d.checkGrant(g, sunKey, conn)
		if probe != nil && probe.sample() {
			if err := probe.grant(overloadCriteria, g); err != nil {
				d.violate("codec probe: %v", err)
			}
		}
		d.unhold(g)
		d.control1(time.Now(), func() error { return d.clients[conn].Release(g) })
	})
	wg.Wait()
	o.runtime = rt.end()
	bulkDone := bulkSettled(n.over) - bulkBefore
	// A grant the daemon completed after its caller's deadline is a lease
	// no client holds; it is never released.
	orphans := bulkDone - received.Load()
	wireBytes := d.wireBytes()
	for _, g := range holders {
		d.unhold(g)
		if err := d.clients[0].Release(g); err != nil {
			o.violations = append(o.violations, fmt.Sprintf("holder release: %v", err))
		}
	}

	if tr != nil {
		o.layers = collectLayers(tr, []*node{n}, probe, o)
		// No self-check here: renewals and releases wait for the pool the
		// flood keeps busy, and no seam times that wait, so
		// trace.accounted stays 0.
		o.layers["wire.transit_us"] = float64(d.ping.Mean()) / 1e3
	} else {
		o.capacity, err = closedLoop(len(d.clients), capDur, func(w int) error {
			g, err := d.clients[w].Request(overloadCriteria)
			if err != nil {
				return err
			}
			return d.clients[w].Release(g)
		})
		if err != nil {
			return nil, fmt.Errorf("capacity: %w", err)
		}
	}
	o.violations = append(o.violations, d.finish([]*node{n}, orphans)...)
	if dropped > 0 {
		o.violations = append(o.violations, fmt.Sprintf("%d of %d arrivals dropped at the outstanding cap", dropped, arrivals))
	}

	o.attempted, o.failed = int(d.attempted.Load()), int(d.failed.Load())
	// In-deadline grants are too few under the collapse for steady
	// quantiles, so the end-to-end latencies here are the control
	// operations' — the class overload control exists to protect.
	o.primary = d.control
	o.control = d.control
	o.wireBytes, o.ops = wireBytes, float64(o.attempted)
	o.count("refused", refused.Load())
	o.count("in_deadline_grants", good.Load())
	o.count("server_bulk_done", bulkDone)
	o.count("orphaned_grants", orphans)
	o.detail("goodput_per_s", "grants/s", float64(good.Load())/rc.dur.Seconds())
	o.detail("grant_p50_ms", "ms", grants.QuantileMS(0.50))
	o.detail("control_p99_ms", "ms", d.control.QuantileMS(0.99))
	if bulkDone > 0 {
		o.detail("bulk_wasted_frac", "ratio", float64(bulkDone-good.Load())/float64(bulkDone))
	}
	return o, nil
}

// bulkSettled waits until the bulk lane is idle and its completion count
// stops moving, then returns that count: requests whose callers gave up
// may still be running when the generator finishes.
func bulkSettled(stats *metrics.OverloadStats) int64 {
	last := stats.Snapshot()[metrics.ClassBulk]
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		cur := stats.Snapshot()[metrics.ClassBulk]
		if cur.Depth == 0 && cur.Done == last.Done {
			return cur.Done
		}
		last = cur
	}
	return last.Done
}

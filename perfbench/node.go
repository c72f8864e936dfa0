package main

import (
	"fmt"
	"time"

	"actyp/internal/core"
	"actyp/internal/journal"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/querymgr"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/schedule"
	"actyp/internal/stage"
	"actyp/internal/wire"
)

// The daemon defaults the benchmark assembles with, matching actypd's
// flag defaults.
const (
	daemonObjective   = "least-load"
	daemonMonitor     = time.Second
	daemonLaneWeights = "lease=4,bulk=1"
	daemonSeed        = 1 // core.Options' default seed
)

// nodeSpec describes one in-process daemon.
type nodeSpec struct {
	name       string              // pool-manager name prefix ("" keeps pm)
	machines   []*registry.Machine // population when no journal replays
	routes     *route.Table        // domain ownership (nil: unpartitioned)
	journalDir string              // "" runs without durability
	snapEvery  time.Duration       // journal snapshot period
	scanCost   time.Duration       // modelled per-entry pool scan cost
	warm       []string            // pool criteria created before serving
	stage      bool                // expose pm-0 as a stage endpoint
	trace      *tracer             // nil: no timing wrappers
	phase      *phase              // nil: periodic tasks start whenever set-up reaches them
}

// phase pins when a node's periodic background tasks start, so their
// relative timing is the same in every run: the monitor's sweep ticker
// starts with the service at base+monitorAt, and the journal's snapshot
// ticker at base+snapshotAt. The waits are not set-up work and are
// reported separately.
type phase struct {
	base                  time.Time
	monitorAt, snapshotAt time.Duration
}

// wait sleeps until base+at and returns how long it slept.
func (p *phase) wait(at time.Duration) time.Duration {
	if p == nil {
		return 0
	}
	d := time.Until(p.base.Add(at))
	if d <= 0 {
		return 0
	}
	time.Sleep(d)
	return d
}

// node is one live daemon, assembled in the order actypd's run() uses:
// registry backend, journal replay, population, service, recovery, warm
// pools, journal attach, overload policy, then the TCP and stage
// endpoints.
type node struct {
	db       *registry.DB
	svc      *core.Service
	srv      *core.Server
	stageSrv *stage.Server
	jnl      *journal.Journal
	jstats   *metrics.JournalStats
	fed      *metrics.FederationStats
	over     *metrics.OverloadStats
	wire     *metrics.WireStats
	remotes  []*stage.Remote

	replayed    []journal.LeaseRecord // leases the journal replayed
	recovery    core.RecoveryReport
	recoverTime time.Duration
	paced       time.Duration // set-up time spent waiting on the phase
}

func startNode(spec nodeSpec) (n *node, err error) {
	n = &node{fed: metrics.NewFederationStats(), wire: &metrics.WireStats{}}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	backend, err := registry.OpenBackend(registry.BackendSharded, 0)
	if err != nil {
		return n, err
	}
	if spec.trace != nil {
		backend = spec.trace.backend(backend, false)
	}
	n.db = registry.NewDBWith(backend)

	var jstate *journal.State
	if spec.journalDir != "" {
		n.jstats = metrics.NewJournalStats()
		n.jnl, jstate, err = journal.Open(journal.Config{Dir: spec.journalDir, Fsync: journal.FsyncInterval, Stats: n.jstats})
		if err != nil {
			return n, fmt.Errorf("journal open: %w", err)
		}
	}
	if jstate != nil && !jstate.Empty() {
		if spec.routes != nil {
			jstate.Filter(spec.routes.KeepMachine)
		}
		if err := jstate.RestoreDB(n.db); err != nil {
			return n, fmt.Errorf("journal restore: %w", err)
		}
		n.replayed = jstate.Leases
	} else {
		for _, m := range spec.machines {
			if err := n.db.Add(m); err != nil {
				return n, err
			}
		}
	}

	opts := core.Options{
		DB:              n.db,
		NodeName:        spec.name,
		Objective:       daemonObjective,
		ScanCost:        spec.scanCost,
		MonitorInterval: daemonMonitor,
		FederationStats: n.fed,
		Routes:          spec.routes,
	}
	if n.jnl != nil {
		opts.LeaseLog = n.jnl
		opts.DelegationLog = n.jnl
	}
	if spec.trace != nil {
		// The selector core.New would build by default, wrapped so every
		// resource manager it hands out is timed.
		var sel querymgr.Selector = querymgr.NewRandomSelector(daemonSeed)
		if spec.routes != nil {
			sel = querymgr.NewDomainSelector(sel, daemonSeed)
		}
		opts.Selector = spec.trace.selector(sel)
		if n.jnl != nil {
			jl := spec.trace.journal(n.jnl)
			opts.LeaseLog = jl
			opts.DelegationLog = jl
		}
	}
	if spec.phase != nil {
		n.paced += spec.phase.wait(spec.phase.monitorAt)
	}
	n.svc, err = core.New(opts)
	if err != nil {
		return n, err
	}

	if len(n.replayed) > 0 {
		recovered := make([]core.RecoveredLease, 0, len(n.replayed))
		for _, lr := range n.replayed {
			recovered = append(recovered, core.RecoveredLease{Lease: lr.Lease, Expires: lr.Expires, Peer: lr.Peer, Domain: lr.Domain})
		}
		start := time.Now()
		n.recovery, err = n.svc.Recover(recovered, core.RecoverOptions{})
		n.recoverTime = time.Since(start)
		if err != nil {
			return n, fmt.Errorf("recover: %w", err)
		}
		n.jstats.Recovered(n.recovery.Restored+n.recovery.DelegatedRestored, n.recovery.Reaped)
	}

	for _, criteria := range spec.warm {
		if err := n.svc.Precreate(criteria); err != nil {
			return n, fmt.Errorf("warm %q: %w", criteria, err)
		}
	}

	if n.jnl != nil {
		// Every node here holds only its owned records, so the plain
		// registry walk is already the owned-only snapshot source.
		source := func(limit, offset int) ([]*registry.Machine, int, error) {
			return n.svc.SelectMachines("", limit, offset)
		}
		if spec.phase != nil {
			n.paced += spec.phase.wait(spec.phase.snapshotAt)
		}
		if err := n.jnl.Attach(n.db, source, spec.snapEvery); err != nil {
			return n, fmt.Errorf("journal attach: %w", err)
		}
	}

	weights, err := schedule.ParseLaneWeights(daemonLaneWeights)
	if err != nil {
		return n, err
	}
	n.over = metrics.NewOverloadStats()
	overload := &wire.OverloadPolicy{LeaseWeight: weights.Lease, BulkWeight: weights.Bulk, Stats: n.over}
	n.srv, err = core.ServeOpts(n.svc, "127.0.0.1:0", netsim.Local(), core.ServeConfig{
		Window: wire.DefaultWindow, Codecs: wire.DefaultCodecs(), Overload: overload, Stats: n.wire,
	})
	if err != nil {
		return n, err
	}
	if spec.stage {
		n.stageSrv, err = stage.ServeOpts(n.svc.PoolManagers()[0], "127.0.0.1:0", netsim.Local(), stage.ServerOptions{
			Window: wire.DefaultWindow, Codecs: wire.DefaultCodecs(), Stats: n.wire,
		})
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// peerWith dials other's stage endpoint and adds it as a federation peer,
// the way actypd wires -peer-addrs.
func (n *node) peerWith(other *node, tr *tracer) error {
	remote, err := stage.DialRemote(other.stageSrv.Addr(), netsim.Local(), 0)
	if err != nil {
		return err
	}
	n.remotes = append(n.remotes, remote)
	if tr != nil {
		n.svc.Directory().AddPeer(tr.forwarder(remote))
	} else {
		n.svc.Directory().AddPeer(remote)
	}
	return nil
}

// dial opens one generator connection to the node's TCP endpoint.
func (n *node) dial(stats *metrics.WireStats) (*core.Client, error) {
	return core.DialOpts(n.srv.Addr(), netsim.Local(), core.DialConfig{Codecs: wire.DefaultCodecs(), From: "perfbench", Stats: stats})
}

// sealJournal closes the journal ahead of the service, as actypd's
// shutdown does, so the pool teardown's releases are not journaled.
func (n *node) sealJournal() error {
	if n.jnl == nil {
		return nil
	}
	err := n.jnl.Close()
	n.jnl = nil
	return err
}

// close shuts the node down in actypd's order. It is safe on a partly
// started node and idempotent.
// A stage server waits for its connections to end, so in a mesh every
// node's peer connections must be closed before any node closes: use
// closeAll.
func (n *node) close() {
	_ = n.sealJournal()
	n.closeRemotes()
	if n.stageSrv != nil {
		n.stageSrv.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	if n.svc != nil {
		n.svc.Close()
	}
}

func (n *node) closeRemotes() {
	for _, r := range n.remotes {
		_ = r.Close()
	}
	n.remotes = nil
}

// closeAll shuts a mesh down: peer connections first, then the nodes.
func closeAll(nodes []*node) {
	for _, n := range nodes {
		n.closeRemotes()
	}
	for _, n := range nodes {
		n.close()
	}
}

// takenMarks counts registry records still marked taken by a pool.
func (n *node) takenMarks() int {
	taken := 0
	n.db.Walk(func(m *registry.Machine) bool {
		if m.TakenBy != "" {
			taken++
		}
		return true
	})
	return taken
}

// overloadStats returns the nodes' lane counters when tracing, for the
// runtime window's queue-depth sampling.
func overloadStats(nodes []*node, tr *tracer) []*metrics.OverloadStats {
	if tr == nil {
		return nil
	}
	var out []*metrics.OverloadStats
	for _, n := range nodes {
		out = append(out, n.over)
	}
	return out
}

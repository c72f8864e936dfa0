package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/directory"
	"actyp/internal/journal"
	"actyp/internal/metrics"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/querymgr"
	"actyp/internal/registry"
)

// tracer times calls at the public seams the daemon already accepts:
// the registry backend, the query manager's pool-manager selection, the
// journal's lease and delegation hooks, and the federation forwarder.
// The seams carry no request id, so spans are aggregated per method; the
// lease id a call returns is used to take the journal append or directed
// hop made under one resolve out of that resolve's time.
type tracer struct {
	// registry.Backend
	sel, updBatch, take, release, replica hist
	selCopied                             atomic.Int64

	// querymgr.ResourceManager (the pool-manager stage)
	resolve, poolSelf hist
	resolveFail       atomic.Int64

	// pool.LeaseLog / poolmgr.DelegationLog
	leaseAppend, leaseOther hist
	ops                     opSample

	// directory.Forwarder
	hop hist

	// Per-lease child time, keyed by lease id, consumed when the resolve
	// or hop that produced the lease returns.
	mu       sync.Mutex
	appended map[string]time.Duration
	hopTime  map[string]time.Duration
	resolved map[string]time.Duration // whole resolve, for the grant's self-check pair
	managers sync.Map                 // querymgr.ResourceManager -> *tracedRM
}

func newTracer() *tracer {
	return &tracer{appended: make(map[string]time.Duration), hopTime: make(map[string]time.Duration), resolved: make(map[string]time.Duration)}
}

// maxPending bounds each per-lease map: entries nobody pops (grants
// whose caller gave up) must not grow the harness's heap.
const maxPending = 1 << 14

func (t *tracer) put(m map[string]time.Duration, id string, d time.Duration) {
	t.mu.Lock()
	if _, ok := m[id]; ok || len(m) < maxPending {
		m[id] += d
	}
	t.mu.Unlock()
}

func (t *tracer) pop(m map[string]time.Duration, id string) time.Duration {
	t.mu.Lock()
	d := m[id]
	delete(m, id)
	t.mu.Unlock()
	return d
}

// tracedBackend times the registry calls each workload exercises. A
// replica backend books every call under replica apply.
type tracedBackend struct {
	registry.Backend
	t       *tracer
	replica bool
}

func (t *tracer) backend(b registry.Backend, replica bool) registry.Backend {
	return &tracedBackend{Backend: b, t: t, replica: replica}
}

func (b *tracedBackend) timed(h *hist, start time.Time) {
	if b.replica {
		h = &b.t.replica
	}
	h.Observe(time.Since(start))
}

func (b *tracedBackend) Select(q *query.Query) []*registry.Machine {
	start := time.Now()
	ms := b.Backend.Select(q)
	b.timed(&b.t.sel, start)
	b.t.selCopied.Add(int64(len(ms)))
	return ms
}

func (b *tracedBackend) UpdateDynamicBatch(updates []registry.DynamicUpdate) int {
	start := time.Now()
	n := b.Backend.UpdateDynamicBatch(updates)
	b.timed(&b.t.updBatch, start)
	return n
}

func (b *tracedBackend) Take(q *query.Query, poolInstance string, limit int) []*registry.Machine {
	start := time.Now()
	ms := b.Backend.Take(q, poolInstance, limit)
	b.timed(&b.t.take, start)
	return ms
}

func (b *tracedBackend) Release(poolInstance string, names ...string) int {
	start := time.Now()
	n := b.Backend.Release(poolInstance, names...)
	b.timed(&b.t.release, start)
	return n
}

func (b *tracedBackend) ReleaseAll(poolInstance string) int {
	start := time.Now()
	n := b.Backend.ReleaseAll(poolInstance)
	b.timed(&b.t.release, start)
	return n
}

// The remote-watch apply path writes through these three.

func (b *tracedBackend) Add(m *registry.Machine) error {
	if !b.replica {
		return b.Backend.Add(m)
	}
	start := time.Now()
	err := b.Backend.Add(m)
	b.timed(nil, start)
	return err
}

func (b *tracedBackend) Remove(name string) error {
	if !b.replica {
		return b.Backend.Remove(name)
	}
	start := time.Now()
	err := b.Backend.Remove(name)
	b.timed(nil, start)
	return err
}

func (b *tracedBackend) UpdateDynamic(name string, d registry.Dynamic) error {
	if !b.replica {
		return b.Backend.UpdateDynamic(name, d)
	}
	start := time.Now()
	err := b.Backend.UpdateDynamic(name, d)
	b.timed(nil, start)
	return err
}

// tracedSelector hands out timed resource managers.
type tracedSelector struct {
	inner querymgr.Selector
	t     *tracer
}

func (t *tracer) selector(inner querymgr.Selector) querymgr.Selector {
	return &tracedSelector{inner: inner, t: t}
}

func (s *tracedSelector) Select(q *query.Query, managers []querymgr.ResourceManager) querymgr.ResourceManager {
	rm := s.inner.Select(q, managers)
	if rm == nil {
		return nil
	}
	if w, ok := s.t.managers.Load(rm); ok {
		return w.(*tracedRM)
	}
	w, _ := s.t.managers.LoadOrStore(rm, &tracedRM{ResourceManager: rm, t: s.t})
	return w.(*tracedRM)
}

// tracedRM times Resolve at the pool-manager stage and splits off the
// journal append or directed hop that produced the returned lease.
type tracedRM struct {
	querymgr.ResourceManager
	t *tracer
}

func (r *tracedRM) Resolve(q *query.Query) (*pool.Lease, error) {
	start := time.Now()
	lease, err := r.ResourceManager.Resolve(q)
	d := time.Since(start)
	r.t.resolve.Observe(d)
	if err != nil {
		r.t.resolveFail.Add(1)
		return lease, err
	}
	if lease != nil {
		r.t.put(r.t.resolved, lease.ID, d)
		if hop := r.t.pop(r.t.hopTime, lease.ID); hop > 0 {
			d -= hop
		} else {
			d -= r.t.pop(r.t.appended, lease.ID)
		}
		r.t.poolSelf.Observe(d)
	}
	return lease, err
}

// tracedJournal times the durability hooks. The journal implements both
// pool.LeaseLog and poolmgr.DelegationLog, and so does the wrapper.
type tracedJournal struct {
	inner leaseJournal
	t     *tracer
}

// leaseJournal is the journal's side of pool.LeaseLog and
// poolmgr.DelegationLog.
type leaseJournal interface {
	pool.LeaseLog
	DelegationWon(lease *pool.Lease, peer, domain string)
	DelegationDone(leaseID string)
}

func (t *tracer) journal(j leaseJournal) *tracedJournal {
	return &tracedJournal{inner: j, t: t}
}

func (j *tracedJournal) LeaseGranted(l *pool.Lease, expires time.Time) {
	start := time.Now()
	j.inner.LeaseGranted(l, expires)
	d := time.Since(start)
	j.t.leaseAppend.Observe(d)
	j.t.put(j.t.appended, l.ID, d)
	lease := *l
	j.t.ops.add(func(lj leaseJournal) { lj.LeaseGranted(&lease, expires) })
}

func (j *tracedJournal) LeaseReleased(leaseID string) {
	start := time.Now()
	j.inner.LeaseReleased(leaseID)
	j.t.leaseOther.Observe(time.Since(start))
	j.t.ops.add(func(lj leaseJournal) { lj.LeaseReleased(leaseID) })
}

func (j *tracedJournal) LeaseRenewed(leaseID string, expires time.Time) {
	start := time.Now()
	j.inner.LeaseRenewed(leaseID, expires)
	j.t.leaseOther.Observe(time.Since(start))
	j.t.ops.add(func(lj leaseJournal) { lj.LeaseRenewed(leaseID, expires) })
}

func (j *tracedJournal) DelegationWon(l *pool.Lease, peer, domain string) {
	start := time.Now()
	j.inner.DelegationWon(l, peer, domain)
	j.t.leaseOther.Observe(time.Since(start))
	lease := *l
	j.t.ops.add(func(lj leaseJournal) { lj.DelegationWon(&lease, peer, domain) })
}

func (j *tracedJournal) DelegationDone(leaseID string) {
	start := time.Now()
	j.inner.DelegationDone(leaseID)
	j.t.leaseOther.Observe(time.Since(start))
	j.t.ops.add(func(lj leaseJournal) { lj.DelegationDone(leaseID) })
}

// opSample counts the lease ops journaled inside the measured window and
// keeps a uniform sample of them (reservoir), so their record size can be
// measured afterwards in a journal that holds nothing else.
type opSample struct {
	mu     sync.Mutex
	on     bool
	n      int
	rng    *rand.Rand
	sample []func(leaseJournal)
}

const opSampleSize = 512

// start opens the window: earlier ops (set-up, recovery) are forgotten.
func (s *opSample) start() {
	s.mu.Lock()
	s.on, s.n, s.sample, s.rng = true, 0, nil, rand.New(rand.NewSource(1))
	s.mu.Unlock()
}

// stop closes the window and returns the ops counted in it.
func (s *opSample) stop() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.on = false
	return s.n
}

func (s *opSample) add(op func(leaseJournal)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.on {
		return
	}
	s.n++
	if len(s.sample) < opSampleSize {
		s.sample = append(s.sample, op)
	} else if i := s.rng.Intn(s.n); i < opSampleSize {
		s.sample[i] = op
	}
}

// recordBytes replays the sampled ops into a fresh journal in dir and
// returns their mean framed record size.
func (s *opSample) recordBytes(dir string) (float64, error) {
	s.mu.Lock()
	sample := slices.Clone(s.sample)
	s.mu.Unlock()
	if len(sample) == 0 {
		return 0, nil
	}
	stats := metrics.NewJournalStats()
	j, _, err := journal.Open(journal.Config{Dir: dir, Fsync: journal.FsyncOff, Stats: stats})
	if err != nil {
		return 0, err
	}
	for _, op := range sample {
		op(j)
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	c := stats.Snapshot()
	if c.LeaseOps != int64(len(sample)) {
		return 0, fmt.Errorf("sized %d of %d sampled lease ops", c.LeaseOps, len(sample))
	}
	return float64(c.Bytes) / float64(len(sample)), nil
}

// The forwarder wrappers. The pool manager type-asserts peers for the
// optional directory.ContextForwarder and directory.LeaseReleaser, so the
// wrapper must implement exactly the optional interfaces its target does:
// forwarder() picks the matching type.
type tracedFwd struct {
	inner directory.Forwarder
	t     *tracer
}

func (f *tracedFwd) Name() string { return f.inner.Name() }

func (f *tracedFwd) Forward(q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	start := time.Now()
	lease, err := f.inner.Forward(q, ttl, visited)
	f.observe(start, lease)
	return lease, err
}

func (f *tracedFwd) observe(start time.Time, lease *pool.Lease) {
	d := time.Since(start)
	f.t.hop.Observe(d)
	if lease != nil {
		// The owner's journal append ran under this hop, not under a
		// local resolve.
		f.t.pop(f.t.appended, lease.ID)
		f.t.put(f.t.hopTime, lease.ID, d)
	}
}

func (f *tracedFwd) forwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	start := time.Now()
	lease, err := f.inner.(directory.ContextForwarder).ForwardContext(ctx, q, ttl, visited)
	f.observe(start, lease)
	return lease, err
}

func (f *tracedFwd) release(lease *pool.Lease) error {
	return f.inner.(directory.LeaseReleaser).Release(lease)
}

type tracedFwdCtx struct{ *tracedFwd }

func (f tracedFwdCtx) ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	return f.forwardContext(ctx, q, ttl, visited)
}

type tracedFwdRel struct{ *tracedFwd }

func (f tracedFwdRel) Release(lease *pool.Lease) error { return f.release(lease) }

type tracedFwdCtxRel struct{ *tracedFwd }

func (f tracedFwdCtxRel) ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	return f.forwardContext(ctx, q, ttl, visited)
}

func (f tracedFwdCtxRel) Release(lease *pool.Lease) error { return f.release(lease) }

func (t *tracer) forwarder(inner directory.Forwarder) directory.Forwarder {
	base := &tracedFwd{inner: inner, t: t}
	_, ctx := inner.(directory.ContextForwarder)
	_, rel := inner.(directory.LeaseReleaser)
	switch {
	case ctx && rel:
		return tracedFwdCtxRel{base}
	case ctx:
		return tracedFwdCtx{base}
	case rel:
		return tracedFwdRel{base}
	}
	return base
}

package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"actyp/internal/core"
	"actyp/internal/directory"
	"actyp/internal/metrics"
	"actyp/internal/stage"
)

// nodeCounts is what the pipeline counted on one node.
type nodeCounts struct {
	Stats core.Stats
	Fed   metrics.FederationSnapshot
}

// scriptedCounts drives one seed's session plans through a partitioned
// pair, one session at a time, and returns each node's counters.
func scriptedCounts(t *testing.T, tr *tracer) []nodeCounts {
	t.Helper()
	fleet, err := splitFleet(600, churnDomains)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := startPair(fleet, t.TempDir(), time.Hour, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nodes)
	d, err := newDesk(nodes, churnOwner())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	plan := newPlanner(rand.New(rand.NewSource(7)), len(nodes), churnOwner(), churnXDomain)
	for i := 0; i < 200; i++ {
		p := plan.next()
		g, err := d.clients[p.target].Request(p.key.text())
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		owner := d.owner[p.key.domain]
		if err := d.clients[owner].Renew(g); err != nil {
			t.Fatalf("session %d renew: %v", i, err)
		}
		if err := d.clients[p.target].Release(g); err != nil {
			t.Fatalf("session %d release: %v", i, err)
		}
	}
	var out []nodeCounts
	for _, n := range nodes {
		out = append(out, nodeCounts{Stats: n.svc.Stats(), Fed: n.fed.Snapshot()})
	}
	return out
}

// TestTracingKeepsPaths: the timing wrappers must not change the path a
// request takes, so a traced and an untraced run of one seed count the
// same queries, fragments, resolves, forwards and directed hops.
func TestTracingKeepsPaths(t *testing.T) {
	plain := scriptedCounts(t, nil)
	traced := scriptedCounts(t, newTracer())
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced counters differ:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if plain[0].Fed.Directed == 0 || plain[1].Fed.Directed == 0 {
		t.Fatalf("no directed hops ran: %+v", plain)
	}
}

// TestForwarderWrapperInterfaces: the forwarder wrapper implements
// exactly the optional interfaces of its target.
func TestForwarderWrapperInterfaces(t *testing.T) {
	tr := newTracer()
	var remote directory.Forwarder = &stage.Remote{}
	w := tr.forwarder(remote)
	for _, c := range []struct {
		name      string
		want, got bool
	}{
		{"ContextForwarder", is[directory.ContextForwarder](remote), is[directory.ContextForwarder](w)},
		{"LeaseReleaser", is[directory.LeaseReleaser](remote), is[directory.LeaseReleaser](w)},
	} {
		if c.want != c.got {
			t.Errorf("%s: target %v, wrapper %v", c.name, c.want, c.got)
		}
	}
	bare := tr.forwarder(struct{ directory.Forwarder }{remote})
	if is[directory.ContextForwarder](bare) || is[directory.LeaseReleaser](bare) {
		t.Error("wrapper of a bare forwarder gained optional interfaces")
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

func TestHistQuantiles(t *testing.T) {
	h := &hist{}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		if got := h.Quantile(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("q%.2f = %.0f, want about %.0f", c.q, got, c.want)
		}
	}
	for i := 0; i < 20; i++ {
		h.Miss()
	}
	if got := h.Quantile(0.99); got <= 1e9 {
		t.Errorf("q0.99 with 2%% misses = %.0f, want +Inf", got)
	}
}

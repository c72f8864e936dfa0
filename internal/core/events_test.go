package core

import (
	"testing"
	"time"

	"actyp/internal/registry"
)

// TestEventDispatchFoldsMonitorUpdates verifies the self-optimizing loop
// end to end with no refresh timer at all: the monitor's write to the
// white pages must reach the pool's scheduling decision through the
// change-stream dispatcher alone.
func TestEventDispatchFoldsMonitorUpdates(t *testing.T) {
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(2).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Precreate("punch.rsrc.arch = sun"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Events().Pools(); got != 1 {
		t.Fatalf("subscribed pools = %d, want 1", got)
	}

	m, err := db.Get("m0000")
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dynamic
	d.Load = 3.5
	if err := db.UpdateDynamic("m0000", d); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		g, err := svc.Request("punch.rsrc.arch = sun")
		if err != nil {
			t.Fatal(err)
		}
		machine := g.Lease.Machine
		if err := svc.Release(g); err != nil {
			t.Fatal(err)
		}
		if machine == "m0001" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler kept choosing %s despite the load update", machine)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSplitReplicaResubscribe: split children and replicas take over the
// parent's change-stream subscription across the admin swap.
func TestSplitReplicaResubscribe(t *testing.T) {
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(8).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const criteria = "punch.rsrc.arch = sun"
	if err := svc.Precreate(criteria); err != nil {
		t.Fatal(err)
	}
	if got := svc.Events().Pools(); got != 1 {
		t.Fatalf("after precreate: %d subscriptions, want 1", got)
	}
	if err := svc.SplitPool(criteria, 2); err != nil {
		t.Fatal(err)
	}
	if got := svc.Events().Pools(); got != 2 {
		t.Fatalf("after split: %d subscriptions, want 2 (children in, parent out)", got)
	}
}

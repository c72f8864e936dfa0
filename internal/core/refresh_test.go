package core

import "testing"

func TestStatsAggregation(t *testing.T) {
	s := fleetService(t, 16)
	for i := 0; i < 3; i++ {
		g, err := s.Request("punch.rsrc.arch = sun | hp")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(g); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Queries != 3 || st.Fragments != 6 {
		t.Errorf("queries/fragments = %d/%d", st.Queries, st.Fragments)
	}
	if st.Resolved < 6 || st.PoolsCreated != 2 || st.Pools != 2 {
		t.Errorf("resolved=%d created=%d pools=%d", st.Resolved, st.PoolsCreated, st.Pools)
	}
	if st.Machines != 16 {
		t.Errorf("machines = %d", st.Machines)
	}
}

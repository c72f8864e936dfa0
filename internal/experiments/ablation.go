package experiments

import (
	"fmt"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/querymgr"
	"actyp/internal/registry"
	"actyp/internal/schedule"
)

// Ablation drivers for the design decisions DESIGN.md calls out. Each
// returns series comparing the paper's choice against an alternative.

// AblationFirstMatch compares the two reintegration QoS policies of
// Section 6 on composite queries: WaitAll (reintegrate every fragment,
// return the best) versus FirstMatch (return the first available match).
func AblationFirstMatch(machines, clients, perClient int, scanCost time.Duration) ([]metrics.Series, error) {
	var out []metrics.Series
	for _, mode := range []struct {
		label string
		mode  querymgr.QoS
	}{{"wait-all", querymgr.WaitAll}, {"first-match", querymgr.FirstMatch}} {
		db, err := newDB()
		if err != nil {
			return out, err
		}
		if err := registry.DefaultFleetSpec(machines).Populate(db, time.Now()); err != nil {
			return out, err
		}
		svc, err := core.New(core.Options{DB: db, ScanCost: scanCost, Mode: mode.mode})
		if err != nil {
			return out, err
		}
		rec := metrics.NewRecorder()
		err = closedLoop(clients, perClient, rec, func(client, iter int) error {
			g, err := svc.Request("punch.rsrc.arch = sun | hp | alpha | x86")
			if err != nil {
				return err
			}
			return svc.Release(g)
		})
		svc.Close()
		if err != nil {
			return out, err
		}
		s := metrics.Series{Label: mode.label}
		s.Add(float64(clients), rec.Mean().Seconds())
		out = append(out, s)
	}
	return out, nil
}

// AblationStaticPools compares dynamic first-touch pool creation against
// statically pre-created pools: the first query to a cold criteria pays
// the aggregation walk, which static pre-aggregation hides. The walk it
// ablates is the paper's linear one, so this driver pins the white pages
// to the locked reference engine — on the sharded, index-accelerated
// engine the aggregation is no longer linear and the effect (by design)
// all but disappears.
func AblationStaticPools(machines, pools int, scanCost time.Duration) ([]metrics.Series, error) {
	measure := func(warm bool) (first, rest time.Duration, err error) {
		db := registry.NewDBWith(registry.NewLocked())
		if err := registry.HomogeneousFleetSpec(machines).Populate(db, time.Now()); err != nil {
			return 0, 0, err
		}
		svc, err := core.New(core.Options{DB: db, ScanCost: scanCost, Seed: 1})
		if err != nil {
			return 0, 0, err
		}
		defer svc.Close()
		if err := svc.StripePools(pools); err != nil {
			return 0, 0, err
		}
		if warm {
			if err := svc.WarmPools(pools); err != nil {
				return 0, 0, err
			}
		}
		restRec := metrics.NewRecorder()
		for k := 0; k < pools; k++ {
			q := fmt.Sprintf("punch.rsrc.pool = %d", k)
			start := time.Now()
			g, err := svc.Request(q)
			if err != nil {
				return 0, 0, err
			}
			d := time.Since(start)
			if k == 0 {
				first = d
			} else {
				restRec.Record(d)
			}
			if err := svc.Release(g); err != nil {
				return 0, 0, err
			}
		}
		return first, restRec.Mean(), nil
	}

	// A first query is one millisecond-scale sample, which scheduler
	// noise on a loaded host can flip; each mode therefore runs several
	// times, interleaved so a load burst hits both, and reports medians.
	const reps = 5
	var first, rest [2]*metrics.Recorder // index 0: cold, 1: warm
	for mode := range first {
		first[mode], rest[mode] = metrics.NewRecorder(), metrics.NewRecorder()
	}
	for i := 0; i < reps; i++ {
		for mode, warm := range []bool{false, true} {
			f, r, err := measure(warm)
			if err != nil {
				return nil, err
			}
			first[mode].Record(f)
			rest[mode].Record(r)
		}
	}
	var out []metrics.Series
	for mode, label := range []string{"dynamic", "static"} {
		s := metrics.Series{Label: label}
		s.Add(0, first[mode].Percentile(50).Seconds())
		s.Add(1, rest[mode].Percentile(50).Seconds())
		out = append(out, s)
	}
	return out, nil
}

// AblationSelection compares the paper's linear search against a
// pre-sorted scan for pool-internal scheduling: it reports nanoseconds per
// selection for each strategy over one synthetic candidate population.
func AblationSelection(poolSize, rounds int) ([]metrics.Series, error) {
	if poolSize <= 0 || rounds <= 0 {
		return nil, fmt.Errorf("experiments: bad ablation config")
	}
	cands := make([]*schedule.Candidate, poolSize)
	for i := range cands {
		cands[i] = &schedule.Candidate{
			Name:  fmt.Sprintf("m%04d", i),
			Load:  float64(i%17) / 10,
			Speed: float64(200 + i%400),
		}
	}

	linear := metrics.Series{Label: "linear-scan"}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		schedule.SelectLinear(cands, schedule.LeastLoad{}, nil)
	}
	linear.Add(float64(poolSize), float64(time.Since(start).Nanoseconds())/float64(rounds))

	// Pre-sorted: sort once (amortized by the background scheduling
	// process), then pick the first free candidate per query.
	sorted := metrics.Series{Label: "presorted"}
	cp := make([]*schedule.Candidate, len(cands))
	copy(cp, cands)
	schedule.Sort(cp, schedule.LeastLoad{})
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, c := range cp {
			if !c.Busy {
				break
			}
		}
	}
	sorted.Add(float64(poolSize), float64(time.Since(start).Nanoseconds())/float64(rounds))
	return []metrics.Series{linear, sorted}, nil
}

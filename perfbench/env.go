package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// environment records where a result was measured.
func environment(seed int64) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       seed,
	}
}

// gogc is the collector target the process runs with: the GOGC
// environment variable, or the runtime's default of 100, as in actypd.
func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, or "unknown" in
// a checkout without version control.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// repeat runs each selected workload runs times in child processes, one
// seed each, and prints every metric's median and spread (interquartile
// range over the median) across the runs, then one result line with the
// medians.
func repeat(name string, seed int64, seconds, trace, runs int) error {
	var names []string
	for _, w := range workloads {
		if name == "all" || name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	total := resultLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for r := 0; r < runs; r++ {
			s := seed + int64(r)
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if len(lines) < 2 {
				return fmt.Errorf("%s seed %d: no result", w, s)
			}
			var detail detailLine
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
				return err
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return err
			}
			if r == 0 {
				fmt.Printf("# %s env %v\n", w, detail.Env)
			}
			for k, m := range detail.Metrics {
				values["detail:"+k] = append(values["detail:"+k], m.Value)
				units["detail:"+k] = m.Unit
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			total.Attempted += res.Attempted
			total.Failed += res.Failed
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			med, spread := medianSpread(values[k])
			fmt.Printf("%-12s %-40s %12.4f %-10s spread %6.1f%% over %d runs %.4g\n", w, k, med, units[k], 100*spread, len(values[k]), values[k])
			if !strings.HasPrefix(k, "detail:") {
				total.Metrics[w+"/"+k] = jsonMetric{med, units[k]}
			}
		}
	}
	return printJSON(total)
}

// medianSpread returns the median and the interquartile range as a share
// of the median, with quartiles as Python's statistics.quantiles gives
// them (exclusive method).
func medianSpread(v []float64) (med, spread float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 || med == 0 {
		return med, 0
	}
	q := func(p float64) float64 {
		// Exclusive method: position p*(n+1), 1-based, clamped.
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return med, (q(0.75) - q(0.25)) / med
}

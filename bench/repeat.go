//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode and the
// tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// steadyWithin is the run-to-run spread (inter-quartile distance over
// the median) above which -repeat marks an end-to-end metric unsteady.
const steadyWithin = 0.1

// disagree reports whether two values of one metric differ by more than
// its regression bound, in whichever direction counts as worse.
func disagree(a, b, bound float64, better string) bool {
	lo, hi := min(a, b), max(a, b)
	if better == "higher" {
		return lo < hi*(1-bound)
	}
	return hi > lo*(1+bound)
}

// repeatSets runs k full untraced sets over the selected workloads,
// alternating the workload order from set to set, prints the median and
// quartiles of every end-to-end metric, marks the unsteady ones, and
// fails when two sets disagree beyond the bounds in BENCHMARK.json or a
// run fails the correctness gate.
func repeatSets(selected []spec, opt options, k int) error {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json: %w", err)
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	var problems []string
	for set := 0; set < k; set++ {
		order := slices.Clone(selected)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for i := range order {
			sp := &order[i]
			rep, err := runWorkload(sp, opt)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set+1, sp.name, err)
			}
			fmt.Printf("-- set %d of %d\n", set+1, k)
			if err := rep.print(opt); err != nil {
				return err
			}
			for _, f := range rep.failures() {
				problems = append(problems, fmt.Sprintf("set %d, %s: %s", set+1, sp.name, f))
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for name, v := range rep.res.Metrics {
				values[sp.name][name] = append(values[sp.name][name], v.Value)
			}
		}
	}

	fmt.Printf("== %d sets, seed %d, seconds %d: median [q1 .. q3] spread\n", k, opt.seed, opt.seconds)
	for i := range selected {
		name := selected[i].name
		fmt.Println(name)
		for _, e := range bf.EndToEnd {
			vs := values[name][e.Name]
			if len(vs) == 0 {
				return fmt.Errorf("BENCHMARK.json lists end-to-end metric %q, which the benchmark does not report", e.Name)
			}
			q1, q3 := vs[0], vs[0]
			if len(vs) > 1 {
				q1, _, q3 = quartiles(vs)
			}
			mark := ""
			if spread(vs) > steadyWithin {
				mark = "  UNSTEADY (spread above a tenth)"
			}
			fmt.Printf("  %-24s %14.4f [%14.4f .. %14.4f] %-4s spread %.4f bound %.2f%s\n",
				e.Name, median(vs), q1, q3, e.Unit, spread(vs), e.Bound, mark)
			for a := 0; a < len(vs); a++ {
				for b := a + 1; b < len(vs); b++ {
					if disagree(vs[a], vs[b], e.Bound, e.Better) {
						problems = append(problems, fmt.Sprintf("%s %s: set %d (%.4f) and set %d (%.4f) disagree beyond the bound %.2f",
							name, e.Name, a+1, vs[a], b+1, vs[b], e.Bound))
					}
				}
			}
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("FAIL", p)
		}
		return fmt.Errorf("%d problems across %d sets", len(problems), k)
	}
	return nil
}

//go:build linux

// Command bench is the repository's benchmark: event on the socket to
// alarm on the socket, against a fresh misused daemon per run, on four
// workloads, with a separate traced run for per-layer numbers. See
// README.md in this directory; BENCHMARK.json at the repository root
// declares the command, the workloads, the metrics and their bounds.
//
// Usage, from the repository root:
//
//	go run ./bench -seed N [-workload name] [-seconds S] [-trace 0|1] [-repeat K]
//
// Without -workload every workload runs; without -trace each runs twice,
// untraced for the end-to-end metrics and traced for the per-layer ones.
// With -workload and -trace the last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}. Any correctness
// violation prints the first differing alarm and exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the replayed stream")
	seconds := flag.Int("seconds", 8, "length of the measured window the event counts are sized for")
	trace := flag.Int("trace", -1, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced); default both")
	repeat := flag.Int("repeat", 0, "run K full untraced sets in alternating order and compare them against the bounds in BENCHMARK.json")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *repeat); err != nil {
		runCleanup()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace, repeat int) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("-seconds must be in 1..60, got %d", seconds)
	}
	if trace < -1 || trace > 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	selected := specs
	if workload != "" {
		sp, err := findSpec(workload)
		if err != nil {
			return err
		}
		selected = []spec{*sp}
	}
	cleanupOnSignal()
	bin, err := buildDaemon()
	if err != nil {
		return err
	}
	fmt.Printf("machine: nproc %d GOMAXPROCS %d %s %s/%s commit %s; daemon -shards %d, one connection, one writer, one reader\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit(), daemonShards)

	if repeat > 0 {
		return repeatSets(selected, options{seed: seed, seconds: seconds, bin: bin}, repeat)
	}
	modes := []bool{false, true}
	if trace >= 0 {
		modes = []bool{trace == 1}
	}
	var failures []string
	for i := range selected {
		for _, traced := range modes {
			opt := options{seed: seed, seconds: seconds, traced: traced, bin: bin}
			rep, err := runWorkload(&selected[i], opt)
			if err != nil {
				return fmt.Errorf("%s: %w", selected[i].name, err)
			}
			if err := rep.print(opt); err != nil {
				return err
			}
			for _, f := range rep.failures() {
				failures = append(failures, selected[i].name+": "+f)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("correctness gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// commit names the measured source: the git revision when the checkout
// is a repository, "unknown" otherwise.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		rev += "+dirty"
	}
	return rev
}

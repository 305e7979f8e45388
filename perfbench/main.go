// Command p3bench is the repository's benchmark of the trusted P3 proxy
// (§4.1). It builds the serving stack — a Facebook-like PSP behind loopback
// HTTP, a secret store sharded over three disk stores with two replicas,
// and the proxy with its default cache budgets — in a server process,
// drives it over HTTP from this process in a closed loop, checks every
// response, and prints each metric by name and unit, then one JSON result
// line.
//
//	p3bench --workload first-view|repeat-view|album-upload --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run. See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
)

func main() {
	if len(os.Args) == 4 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintf(os.Stderr, "p3bench server: %v\n", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload: first-view, repeat-view or album-upload")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	if !slices.Contains(workloads, *workload) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// An image loader on the user's device holds a few connections.
	conns := min(runtime.NumCPU(), 4)
	cfg := defaultConfig(*workload, *seed, *seconds, *trace == 1, conns)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p3bench: %v\n", err)
		os.Exit(1)
	}
	if err := rep.print(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "p3bench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

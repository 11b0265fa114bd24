// Command perfbench is the repository's benchmark: scheduled CDFG
// documents in, synthesized netlist documents out, through the job
// server's public HTTP API driven in process.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload <cold-compile|edit-loop|search> --seed <n>
//	          --seconds <s> --trace <0|1> [--out dir]
//
// An untraced run (--trace 0) measures the end-to-end metrics of one
// workload and checks every served document against a direct in-process
// run of the same input. A traced run (--trace 1) replays the workload's
// inputs through each layer's public calls with spans around them and
// reports per-layer self times and counts. Both print a report and end
// with one JSON line {"correct", "attempted", "failed", "metrics"}.
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"cold-compile", "edit-loop", "search"}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cold-compile, edit-loop or search")
	seed := fs.Int64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := fs.Float64("seconds", 30, "cap on the timed window: no client sends a request after it")
	trace := fs.Int("trace", 0, "1 replays the inputs through the layers with spans and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the span trace of a traced run is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !known(*workload) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --trace 0 or 1, --seconds > 0\n", workloads)
		return 2
	}
	nproc := runtime.GOMAXPROCS(0)
	ctx := context.Background()
	var res result
	var report []string
	var err error
	if *trace == 1 {
		res, report, err = tracedRun(ctx, *workload, *seed, nproc, *seconds, *out)
	} else {
		var r run
		if r, err = untracedRun(ctx, *workload, *seed, nproc, *seconds); err == nil {
			res, report = endToEnd(*workload, r)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	clients, concurrency := 1, 1
	if *workload == "edit-loop" {
		clients, concurrency = nproc, nproc
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d: %d client(s), manager concurrency %d, parallelism %d, dedup on\n",
		*workload, *seed, *trace, clients, concurrency, nproc)
	for _, l := range report {
		fmt.Fprintln(stdout, l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

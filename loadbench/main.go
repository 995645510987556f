// Command loadbench is the repository's end-to-end benchmark. It stands a
// questd-shaped server up in process — internal/serve over one engine, or
// over a coordinator dialling shard servers on loopback TCP — drives it
// over HTTP from this one process with at most one request in flight per
// CPU, checks every answer, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency at a fixed
// arrival rate, closed-loop capacity, setup and warm-up time, live heap);
// with -trace 1 a separate run times each layer instead. GLOSSARY.md
// defines every metric. Run it from the root of a checkout through
// run.sh, which builds it first:
//
//	bash loadbench/run.sh --workload search-single --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// watchdog bounds a run's wall time.
const watchdog = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: search-single, search-remote or mixed-rw")
		seed     = flag.Int64("seed", 1, "workload seed: the request stream (arrival times and draws)")
		dataSeed = flag.Int64("data-seed", 42, "dataset seed: the data and the request population drawn from it")
		seconds  = flag.Int("seconds", 20, "measured time of the run")
		trace    = flag.Int("trace", 0, "1 runs the layer-by-layer traced measurement instead of the end-to-end one")
		workdir  = flag.String("workdir", ".bench_build", "directory for the WAL files a run writes")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "loadbench: want -workload NAME -seed N -seconds N>=1 -trace 0|1")
		os.Exit(2)
	}
	// A run that has not finished by now is stuck; report where and give up
	// rather than hang the caller.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "loadbench: run exceeded %v; goroutines:\n", watchdog)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(1)
	})
	dir, err := filepath.Abs(*workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(config{
		workload: *workload,
		seed:     *seed,
		dataSeed: *dataSeed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workdir:  dir,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		os.Exit(1)
	}
	for name, m := range res.Metrics {
		fmt.Printf("metric %s %v %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

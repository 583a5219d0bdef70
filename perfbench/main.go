// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four seeded workloads against the real code — a service.Fleet behind
// loopback HTTP, a cluster.Router in front of two fleets, or the
// internal/experiments paper campaigns — checks the simulated outputs,
// and prints one JSON result line last on standard output:
//
//	perfbench --workload interactive|routed|advance|campaign --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// the benchmark's own spans off and quoted at a reference host speed that
// a probe samples alongside the run (refspeed.go). With --trace 1 it
// carries the per-layer metrics: the first half of the window runs
// untraced (the per-class latencies and the tracing baseline), the second
// half records a span at every boundary the benchmark owns and folds them,
// together with the server's own span rings, into a per-layer self-time
// table. README.md documents every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansOut string
}

// window converts the --seconds budget to a duration.
func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload runner hands back: its measured values by
// metric name, the correctness tally and, for traced runs, the layer
// table.
type outcome struct {
	metrics    map[string]float64
	attempted  int64
	failed     int64
	mismatches []string
	table      *layerTable
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// mismatch records one wrong output; it counts as a failed operation.
func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	o.failed++
}

// runners maps each workload name to the function that runs it.
var runners = map[string]func(context.Context, options) (*outcome, error){
	"interactive": runInteractive,
	"routed":      runRouted,
	"advance":     runAdvance,
	"campaign":    runCampaign,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "interactive, routed, advance or campaign")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&o.spansOut, "spans-out", "", "JSONL file for a traced run's spans (default .bench_build/trace/<workload>-<seed>.jsonl)")
	goldenOut := fs.String("golden-out", "", "recompute the campaign's golden Table III/IV rows into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *goldenOut != "" {
		if err := writeGolden(context.Background(), *goldenOut); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := runners[o.workload]
	if !ok || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload interactive|routed|advance|campaign, --seconds > 0 and --trace 0|1")
		return 2
	}
	o.trace = *traceFlag == 1
	if o.trace && o.spansOut == "" {
		o.spansOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	}
	// An untraced run's times are quoted at the reference speed, sampled
	// from before set-up to the end of the correctness check.
	var probe *speedProbe
	if !o.trace {
		probe = startProbe()
	}
	out, err := runWorkload(context.Background(), o)
	var speed float64
	if probe != nil {
		speed = probe.stop()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, m := range out.mismatches {
		fmt.Fprintln(stderr, "perfbench: wrong output:", m)
	}
	if err := report(stdout, o, out, speed); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the environment stamp, the traced run's layer table and,
// last, the result line. speed is the host speed an untraced run was
// measured at, 0 for a traced run, whose metrics are reported as measured.
func report(w io.Writer, o options, out *outcome, speed float64) error {
	if out.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	res := result{
		Correct:   len(out.mismatches) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	env := stamp(o)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	} else {
		if speed <= 0 {
			return fmt.Errorf("no host speed sampled")
		}
		env.HostSpeed = speed
		env.Measured = map[string]float64{}
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !o.trace {
			return fmt.Errorf("workload %s measured no %s", o.workload, d.name)
		}
		if !o.trace {
			env.Measured[d.name] = v
			v = atReference(v, speedScaled[d.name], speed)
		}
		// A per-layer metric the workload does not exercise reads 0.
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	stampLine, err := json.Marshal(struct {
		Env environment `json:"env"`
	}{env})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", stampLine)
	if out.table != nil {
		out.table.render(w)
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

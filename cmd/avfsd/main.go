// Command avfsd runs the online monitoring daemon interactively against a
// simulated X-Gene server — the closest analogue of deploying the paper's
// daemon on real hardware. Commands are read from stdin:
//
//	submit <benchmark> <threads>   queue a program (e.g. "submit CG 8")
//	run <seconds>                  advance simulated time
//	status                         machine, daemon and energy state
//	stats                          every telemetry metric, including histograms
//	trace on|off                   toggle the decision trace stream
//	dump <file>                    write a Prometheus text-format snapshot
//	log [n]                        last n machine events (default 20)
//	sysfs [path]                   read one sysfs node, or list all
//	bench                          list available benchmark names
//	quit                           exit
//
// Usage:
//
//	avfsd [-chip xgene2|xgene3]
//	      [-mode baseline|safe-vmin|placement|optimal|monitor]
//	      [-telemetry <file>]
//
// -mode is a Table IV configuration, or monitor: the Optimal daemon with
// placement and voltage adaptation off.
//
// With -telemetry, every daemon decision (classification, placement, and
// each phase of the fail-safe voltage protocol) streams to the file as
// JSONL — see docs/OBSERVABILITY.md for the schema.
//
// Example session:
//
//	$ avfsd -chip xgene3 -telemetry trace.jsonl
//	> submit CG 8
//	> submit namd 1
//	> run 30
//	> status
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"avfs/internal/chip"
)

func main() {
	chipFlag := flag.String("chip", "xgene3", "chip: xgene2 or xgene3")
	mode := flag.String("mode", "optimal", "baseline, safe-vmin, placement, optimal or monitor")
	telPath := flag.String("telemetry", "", "stream the JSONL decision trace to this file")
	flag.Parse()

	model, err := chip.ParseModel(*chipFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avfsd:", err)
		os.Exit(2)
	}
	spec := chip.SpecFor(model)
	s, err := newSession(spec, *mode, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avfsd:", err)
		os.Exit(2)
	}
	if *telPath != "" {
		f, err := os.Create(*telPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		s.streamJSONL(f)
	}
	defer s.close()

	fmt.Printf("avfsd: %s, %d cores (%d PMDs), nominal %v, daemon mode %s\n",
		spec.Name, spec.Cores, spec.PMDs(), spec.NominalMV, *mode)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		if s.exec(sc.Text()) {
			return
		}
	}
}

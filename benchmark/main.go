// Command benchmark is the repository's repeatable end-to-end benchmark:
// four deployment shapes of the HMMM retrieval server, each booted
// in-process behind a real loopback HTTP listener, checked against the
// brute-force oracle, and driven closed-loop on POST /api/query.
//
//	go run ./benchmark -seed 1                      # all four workloads, end-to-end metrics
//	go run ./benchmark -seed 1 -trace 1             # all four, per-layer metrics + trace files
//	go run ./benchmark -workload paper_serial ...   # one workload; last stdout line is its JSON result
//	go run ./benchmark -selfcheck                   # two complete sets, compared against the bounds
//
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains why each was chosen and how the
// layer metrics are expected to move the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// outDir holds trace files and temporary deployment state, relative to
// the repository root; .gitignore names it.
const outDir = "benchmark/out"

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print its JSON result as the last line (empty = all four)")
		seed      = flag.Uint64("seed", 1, "seed for every generated input")
		seconds   = flag.Int("seconds", defaultSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and benchmark/out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run two complete untraced sets and fail if any metric differs by more than its bound")
		smoke     = flag.Bool("smoke", false, "2 s phases on paper-scale archives only: exercises every shape quickly")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// The harness reads and writes relative to the module root.
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the repository root (go run ./benchmark): %w", err))
	}
	// Two runnable goroutines at most — the client and the server side of
	// one connection — whatever the host offers.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	cfg := runConfig{
		seed: *seed, timed: time.Duration(*seconds) * time.Second, warmup: 3 * time.Second,
		trace: *trace == 1, smoke: *smoke, outDir: outDir, log: os.Stderr,
	}

	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workload{w}
	}
	if *selfcheck {
		cfg.trace = false
		if !runSelfcheck(selected, cfg) {
			os.Exit(1)
		}
		return
	}
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(res, cfg.trace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printResult prints every metric by name with unit, direction and
// bound, then the machine-readable result as the last line.
func printResult(res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("\n== %s: attempted %d, failed %d, correct %v\n", res.workload, res.attempted, res.failed, res.correct)
	for _, note := range res.notes {
		fmt.Printf("   ! %s\n", note)
	}
	fmt.Printf("%-34s %16s %-6s %-7s %-6s %s\n", "metric", "value", "unit", "better", "bound", "slice_spread")
	rows := defs
	if !traced {
		rows = append(rows[:len(rows):len(rows)], reportedOnly...)
	}
	for _, d := range rows {
		bound, spreadCol := "-", ""
		if d.bound > 0 {
			bound = fmt.Sprintf("%.2f", d.bound)
		}
		if s, ok := res.spreads[d.name]; ok {
			spreadCol = fmt.Sprintf("%.4f", s)
		}
		fmt.Printf("%-34s %16.4f %-6s %-7s %-6s %s\n", d.name, res.metrics[d.name], d.unit, d.better, bound, spreadCol)
	}
	if res.tracePath != "" {
		fmt.Printf("trace written to %s\n", res.tracePath)
	}
	fmt.Println(resultJSON(res, defs))
}

// resultJSON renders the driver's result object.
func resultJSON(res *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{Value: res.metrics[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// runSelfcheck runs two complete sets back to back on this binary and
// reports, per workload and end-to-end metric, both values, their
// relative difference and the bound. It returns false when a difference
// exceeds its bound or a run was not correct.
func runSelfcheck(selected []*workload, cfg runConfig) bool {
	sets := make([]map[string]*result, 2)
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range selected {
			res, err := runWorkload(w, cfg)
			if err != nil {
				fatal(fmt.Errorf("selfcheck set %d: %s: %w", i+1, w.name, err))
			}
			sets[i][w.name] = res
		}
	}
	ok := true
	fmt.Printf("| %-13s | %-16s | %12s | %12s | %8s | %5s | %-4s |\n", "workload", "metric", "set 1", "set 2", "rel diff", "bound", "")
	fmt.Printf("|%s|\n", strings.Join([]string{strings.Repeat("-", 15), strings.Repeat("-", 18), strings.Repeat("-", 14),
		strings.Repeat("-", 14), strings.Repeat("-", 10), strings.Repeat("-", 7), strings.Repeat("-", 6)}, "|"))
	for _, w := range selected {
		a, b := sets[0][w.name], sets[1][w.name]
		if !a.correct || !b.correct {
			fmt.Printf("| %-13s | run not correct: %v %v\n", w.name, a.notes, b.notes)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := a.metrics[d.name], b.metrics[d.name]
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := "ok"
			if !(diff <= d.bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("| %-13s | %-16s | %12.4f | %12.4f | %8.4f | %5.2f | %-4s |\n", w.name, d.name, va, vb, diff, d.bound, verdict)
		}
	}
	return ok
}

// Command perfbench is the repository's benchmark. It drives the paper's
// lock through both of its stacks from outside, through public functions
// only, and checks every run's outputs:
//
//   - svc-cold, svc-hot: open-loop acquire→release passages over loopback
//     HTTP (lockd/client → lockd.Handler → lockd.Server → abortable) on
//     fresh cold names, or on a few Zipf-hot names;
//   - sim-explore: one bounded-exhaustive harness.Explore of the paper's
//     lock in the rmr simulator.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --p99-limit-us 200000 --fail-limit 0.001 \
//	    --workload svc-hot --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separately traced run. The last line of standard
// output is one JSON object; the lines before it are a readable report.
// See perfbench/README.md for every metric's definition.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// opts are the run's parameters. The ladder's limits come from the command
// line in BENCHMARK.json, so every commit runs the same ones.
type opts struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	limit     time.Duration // acquire p99 limit of the rate ladder
	failLimit float64       // highest fail ratio a passing rung may have
	lanes     int
	steps     int // sim-explore step bound
}

// refRates are the service workloads' fixed reference rates in passages/s:
// under half of each one's max_ok_rate on a 2-vCPU VM, so that a host
// stall's queue drains before the next one.
var refRates = map[string]float64{"svc-cold": 3000, "svc-hot": 3000}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, and a readable line for each.
type report struct {
	res   result
	lines []string
}

func newReport() *report { return &report{res: result{Metrics: map[string]metric{}}} }

// set records a metric that goes into the JSON result.
func (r *report) set(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{v, unit}
	r.note(name, v, unit, note)
}

// note records a readable line only.
func (r *report) note(name string, v float64, unit, note string) {
	line := fmt.Sprintf("%-34s %14.4f %-6s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

func main() {
	var o opts
	var limitUS float64
	flag.StringVar(&o.workload, "workload", "", "svc-cold, svc-hot or sim-explore")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Float64Var(&limitUS, "p99-limit-us", 200000, "acquire p99 limit of the rate ladder, µs")
	flag.Float64Var(&o.failLimit, "fail-limit", 0.001, "fail ratio limit of the rate ladder")
	flag.Parse()
	o.trace = *trace == 1
	o.limit = time.Duration(limitUS * 1e3)
	o.lanes = min(2, runtime.NumCPU())
	o.steps = exploreConfig().MaxSteps
	runtime.GOMAXPROCS(o.lanes)

	// Whatever happens, stop well inside the three minutes a run may take.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s, giving up")
		os.Exit(3)
	})

	rep, err := run(o)
	if rep == nil {
		rep = newReport()
	}
	rep.res.Correct = err == nil
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	out, _ := json.Marshal(rep.res)
	fmt.Println(string(out))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o opts) (*report, error) {
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var rep *report
	var err error
	s0, t0, ok0 := cpuJiffies()
	switch o.workload {
	case "svc-cold", "svc-hot":
		rep, err = runSvc(o, tr)
	case "sim-explore":
		rep, err = runSim(o, tr)
	default:
		return nil, fmt.Errorf("unknown --workload %q (want svc-cold, svc-hot or sim-explore)", o.workload)
	}
	if s1, t1, ok1 := cpuJiffies(); ok0 && ok1 && t1 > t0 && rep != nil {
		rep.note("host.steal_pct", 100*float64(s1-s0)/float64(t1-t0), "%", "CPU time the hypervisor took from this VM during the run")
	}
	if err == nil && tr != nil {
		err = writeSpans(tr, o)
	}
	return rep, err
}

// writeSpans stores the traced run's spans under the build output
// directory, one JSON line per span.
func writeSpans(tr *tracer, o opts) error {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = filepath.Join(".bench_build", "perfbench")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", o.workload, o.seed))
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return tr.write(path)
}

func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

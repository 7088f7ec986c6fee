// Command perfbench is the repository's benchmark: one command that runs a
// workload against the simulator (in-process) or against real womd
// processes (over HTTP), checks every output, and prints one JSON line of
// metrics. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload cluster-miss --seed 3 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload half untraced and half traced, adds the in-process layer suite
// and the service layer sweep, writes the spans as Chrome trace-event JSON
// and prints the per-layer metrics. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeed is the seed the golden simulator digests were recorded at.
const defaultSeed = 1

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // self-check scale: small inputs, no goldens
	root     string // repository checkout the benchmark runs from
	bin      string // directory holding the built womd binary
	work     string // per-run scratch directory (removed on exit)
	traceOut string // Chrome trace-event output of a traced run
	nproc    int
}

// outcome is what a workload reports: op counts plus the metric values,
// keyed by the names declared in metrics.go.
type outcome struct {
	attempted int
	failed    int
	wrong     int // outputs that did not match their reference (also in failed)
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*outcome, error){
	"sim-fig5":     runSimFig5,
	"cluster-miss": runClusterMiss,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	var size string
	flag.StringVar(&cfg.workload, "workload", "", "workload name: sim-fig5 or cluster-miss")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&size, "size", "paper", "input scale: paper, or tiny for the output self-check")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout to run from")
	flag.StringVar(&cfg.bin, "bin", ".bench_build", "directory holding the built womd binary")
	writeGoldens := flag.Bool("write-golden", false, "record the sim-fig5 golden digests at the default seed and exit")
	flag.Parse()

	runner, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case size != "paper" && size != "tiny":
		fmt.Fprintln(os.Stderr, "perfbench: --size must be paper or tiny")
		return 2
	case cfg.seconds <= 0:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.trace = traceFlag == 1
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err == nil {
		cfg.bin, err = filepath.Abs(cfg.bin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.tiny = size == "tiny"
	cfg.nproc = runtime.GOMAXPROCS(0)
	cfg.traceOut = filepath.Join(cfg.bin, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if *writeGoldens {
		if err := writeGolden(&cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(cfg.bin, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(cfg.bin, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.work = work
	children.addDir(work)
	defer children.stopAll()

	// SIGINT/SIGTERM: stop and reap every child, remove scratch, exit
	// without printing a result. A write to a closed standard output or
	// error must not kill the process before it has stopped its children,
	// so SIGPIPE is ignored and such writes just fail.
	signal.Ignore(syscall.SIGPIPE)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			fmt.Fprintln(os.Stderr, "perfbench: interrupted; stopping children")
			children.stopAll()
			os.Exit(130)
		}
	}()

	start := time.Now()
	out, err := runSafely(runner, &cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	children.stopAll()
	if !cfg.trace {
		out.values["ok_frac"] = 1 - float64(out.failed)/float64(max(out.attempted, 1))
	}
	line, err := render(&cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s done in %.1fs: attempted=%d failed=%d wrong=%d\n",
		cfg.workload, time.Since(start).Seconds(), out.attempted, out.failed, out.wrong)
	fmt.Println(line)
	return 0
}

// runSafely turns a panic inside a workload into an error, so the deferred
// child cleanup still runs and no result is printed.
func runSafely(f func(*config) (*outcome, error), cfg *config) (out *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f(cfg)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render builds the result line: every declared metric of the run's kind
// exactly once, each finite.
func render(cfg *config, out *outcome) (string, error) {
	decl := endToEnd
	if cfg.trace {
		decl = perLayer
	}
	rep := report{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(decl)),
	}
	if rep.Attempted < 1 {
		return "", fmt.Errorf("no op was attempted")
	}
	for _, m := range decl {
		v, ok := out.values[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite", m.name)
		}
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(rep)
	return string(b), err
}

// logf writes a progress line to standard error; standard output carries
// only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

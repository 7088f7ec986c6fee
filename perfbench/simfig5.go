package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"womcpcm/internal/core"
	"womcpcm/internal/pcm"
	"womcpcm/internal/sim"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// fig5Traces are the benchmarks sim-fig5 cycles through: write-heavy SPEC,
// SPLASH-2, balanced and read-heavy MiBench.
var fig5Traces = []string{"464.h264ref", "ocean", "qsort", "stringsearch"}

// fig5Requests is the per-trace request count of one sim-fig5 op.
func fig5Requests(cfg *config) int {
	if cfg.tiny {
		return 5000
	}
	return 200000
}

// paramSeed maps the benchmark seed onto a positive simulator seed (the
// simulator treats 0 as its default, 1).
func paramSeed(seed int64) int64 {
	if seed > 0 {
		return seed
	}
	return 1<<40 - seed
}

// fig5Op runs one registry fig5 experiment on one trace and returns the
// digest of its normalized rows.
func fig5Op(exp sim.Experiment, bench string, requests int, seed int64, par int) (string, error) {
	res, err := exp.Run(context.Background(), sim.Params{
		Requests: requests, Seed: seed, Bench: []string{bench}, Parallelism: par,
	})
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return resultDigest(b)
}

// runtimeCounters reads this process's allocation and GC counters.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles, heapInuse float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
		heapInuse:    float64(s[3].Value.Uint64() + s[4].Value.Uint64()),
	}
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simPhase is one measured stretch of sim-fig5 ops.
type simPhase struct {
	latMs     []float64
	gapMs     []float64 // time between one op's end and the next op's start
	intervals []interval
	start     time.Time
	digests   map[string][]string
	ops       int
	failed    int
	elapsed   time.Duration
	cpu       time.Duration
	before    runtimeCounters
	after     runtimeCounters
}

// simLoop runs fig5 ops back to back for dur, starting at trace index
// first. With tr set, each op is one "sim-fig5.op" span.
func simLoop(cfg *config, exp sim.Experiment, dur time.Duration, first int, tr *tracer) simPhase {
	ph := simPhase{digests: make(map[string][]string)}
	seed := paramSeed(cfg.seed)
	rec := tr.recorder()
	ph.before = readRuntime()
	cpu0 := selfCPU()
	start := time.Now()
	ph.start = start
	last := start
	for i := first; time.Since(start) < dur; i++ {
		bench := fig5Traces[i%len(fig5Traces)]
		sp := rec.StartTrace("sim-fig5.op")
		sp.SetStr("bench", bench)
		t0 := time.Now()
		if i > first {
			ph.gapMs = append(ph.gapMs, ms(t0.Sub(last)))
		}
		d, err := fig5Op(exp, bench, fig5Requests(cfg), seed, cfg.nproc)
		last = time.Now()
		sp.End()
		ph.ops++
		if err != nil {
			logf("sim-fig5: %s: %v", bench, err)
			ph.failed++
			continue
		}
		ph.latMs = append(ph.latMs, ms(last.Sub(t0)))
		ph.intervals = append(ph.intervals, interval{t0, last})
		ph.digests[bench] = append(ph.digests[bench], d)
	}
	ph.elapsed = time.Since(start)
	ph.cpu = selfCPU() - cpu0
	ph.after = readRuntime()
	return ph
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func runSimFig5(cfg *config) (*outcome, error) {
	out := newOutcome()
	exp, err := sim.LookupExperiment("fig5")
	if err != nil {
		return nil, err
	}
	// Set-up: registry lookup plus one paper-scale warm-up op, so lazy
	// runtime growth is paid before timing; setupRepeats times, median.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := sim.LookupExperiment("fig5")
		if err == nil {
			_, err = fig5Op(e, fig5Traces[0], fig5Requests(cfg), paramSeed(cfg.seed), cfg.nproc)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.values["setup_s"] = median(setups)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var phases []simPhase
	if cfg.trace {
		tr := newTracer(cfg.seed)
		plain := simLoop(cfg, exp, dur/2, 0, nil)
		traced := simLoop(cfg, exp, dur/2, plain.ops, tr)
		phases = []simPhase{plain, traced}
		obs := layerObs{}
		obs.add("trace.overhead_frac", median(traced.latMs)/median(plain.latMs)-1)
		obs.add("runtime.gc_cycles_per_op", (traced.after.gcCycles-traced.before.gcCycles)/float64(max(traced.ops, 1)))
		obs.add("runtime.heap_inuse_mb", traced.after.heapInuse/(1<<20))
		obs.addAll("loadgen.lag_p99_ms", traced.gapMs)
		if err := finishTraced(cfg, tr, obs, out); err != nil {
			return nil, err
		}
	} else {
		ph := simLoop(cfg, exp, dur, 0, nil)
		phases = []simPhase{ph}
		n := float64(max(ph.ops, 1))
		out.values["ops_per_s"] = windowRate(ph.intervals, ph.start, ph.elapsed, 2*time.Second)
		latencySummary(out, cfg.workload, ph.latMs)
		out.values["cpu_ms_per_op"] = ms(ph.cpu) / n
		out.values["alloc_bytes_per_op"] = (ph.after.allocBytes - ph.before.allocBytes) / n
		rss, err := peakRSS(os.Getpid())
		if err != nil {
			return nil, err
		}
		out.values["peak_rss_mb"] = rss / (1 << 20)
	}

	// Checks, outside every timed stretch.
	digests := make(map[string][]string)
	for _, ph := range phases {
		out.attempted += ph.ops
		out.failed += ph.failed
		for b, ds := range ph.digests {
			digests[b] = append(digests[b], ds...)
		}
	}
	wrong, err := checkFig5(cfg, exp, digests)
	if err != nil {
		return nil, err
	}
	out.wrong += wrong
	out.failed += wrong
	return out, nil
}

// checkFig5 returns how many ops produced a wrong result. Every repeat of a
// trace must reproduce its first digest. At the default seed and paper
// scale each trace must match the committed golden (normalized rows and
// per-architecture stats.Run); at any other seed one trace is re-run at
// Parallelism 1 and must match the nproc run.
func checkFig5(cfg *config, exp sim.Experiment, digests map[string][]string) (int, error) {
	wrong := 0
	for b, ds := range digests {
		for _, d := range ds[1:] {
			if d != ds[0] {
				logf("sim-fig5: %s repeat digest %s differs from first %s", b, d[:12], ds[0][:12])
				wrong++
			}
		}
	}
	seed := paramSeed(cfg.seed)
	if !cfg.tiny && cfg.seed == defaultSeed {
		golden, err := loadGolden(cfg)
		if err != nil {
			return 0, err
		}
		for b, ds := range digests {
			g, ok := golden.Runs[b]
			if !ok {
				return 0, fmt.Errorf("no golden digest for %s", b)
			}
			stats, err := statsDigests(b, fig5Requests(cfg), seed)
			if err != nil {
				return 0, err
			}
			bad := ds[0] != g.Rows
			for i, a := range archNames {
				if stats[i] != g.Stats[a] {
					logf("sim-fig5: %s %s stats.Run digest %s, golden %s", b, a, stats[i][:12], g.Stats[a][:12])
					bad = true
				}
			}
			if bad {
				logf("sim-fig5: %s does not match its golden (rows %s, golden %s)", b, ds[0][:12], g.Rows[:12])
				wrong += len(ds)
			}
		}
		return wrong, nil
	}
	b := fig5Traces[0]
	ds := digests[b]
	if len(ds) == 0 {
		return wrong, nil
	}
	d, err := fig5Op(exp, b, fig5Requests(cfg), seed, 1)
	if err != nil {
		return 0, err
	}
	if d != ds[0] {
		logf("sim-fig5: %s at Parallelism 1 gives %s, at %d gives %s", b, d[:12], cfg.nproc, ds[0][:12])
		wrong += len(ds)
	}
	return wrong, nil
}

// goldenFile is the committed digest set for the default seed.
type goldenFile struct {
	Seed     int64                  `json:"seed"`
	Requests int                    `json:"requests"`
	Runs     map[string]goldenEntry `json:"runs"`
}

// goldenEntry is one fig5 run's digests: the normalized rows, and each
// architecture's stats.Run.
type goldenEntry struct {
	Rows  string            `json:"rows"`
	Stats map[string]string `json:"stats"`
}

func goldenPath(cfg *config) string {
	return filepath.Join(cfg.root, "perfbench", "golden", "fig5.json")
}

func loadGolden(cfg *config) (*goldenFile, error) {
	b, err := os.ReadFile(goldenPath(cfg))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(cfg), err)
	}
	if g.Seed != defaultSeed || g.Requests != fig5Requests(cfg) {
		return nil, fmt.Errorf("%s records seed %d at %d requests", goldenPath(cfg), g.Seed, g.Requests)
	}
	return &g, nil
}

// writeGolden records the golden digests at the default seed. Run through
// `run.sh --workload sim-fig5 --write-golden`; an update must be named and
// justified in CHANGES.md.
func writeGolden(cfg *config) error {
	exp, err := sim.LookupExperiment("fig5")
	if err != nil {
		return err
	}
	g := goldenFile{Seed: defaultSeed, Requests: fig5Requests(cfg), Runs: map[string]goldenEntry{}}
	for _, b := range fig5Traces {
		rows, err := fig5Op(exp, b, g.Requests, paramSeed(defaultSeed), cfg.nproc)
		if err != nil {
			return err
		}
		stats, err := statsDigests(b, g.Requests, paramSeed(defaultSeed))
		if err != nil {
			return err
		}
		e := goldenEntry{Rows: rows, Stats: map[string]string{}}
		for i, a := range archNames {
			e.Stats[a] = stats[i]
		}
		g.Runs[b] = e
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(cfg)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(cfg), append(b, '\n'), 0o644)
}

// statsDigests simulates one trace on each architecture the way a fig5 cell
// does and hashes each stats.Run, unexported histogram buckets included.
func statsDigests(bench string, requests int, seed int64) ([]string, error) {
	prof, err := workload.ProfileByName(bench)
	if err != nil {
		return nil, err
	}
	geom := pcm.DefaultGeometry()
	out := make([]string, len(core.Arches()))
	for i, a := range core.Arches() {
		run, err := simulateCell(a, prof, geom, seed, requests)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *run)))
		out[i] = fmt.Sprintf("%x", sum)
	}
	return out, nil
}

// simulateCell is one fig5 cell: the trace streamed from its generator
// through a fresh controller of architecture a.
func simulateCell(a core.Arch, prof workload.Profile, geom pcm.Geometry, seed int64, requests int) (*stats.Run, error) {
	opts := core.DefaultOptions()
	opts.Geometry = geom
	sys, err := core.NewSystem(a, opts)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(prof, geom, seed)
	if err != nil {
		return nil, err
	}
	run, err := sys.Simulate(trace.NewLimit(gen, requests))
	if err != nil {
		return nil, err
	}
	run.Workload = prof.Name
	return run, nil
}

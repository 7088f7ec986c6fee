// Package sim drives the paper's experiments (§5): it pairs the synthetic
// benchmark workloads with the four architectures and regenerates every
// figure of the evaluation — Fig. 5(a)/(b) normalized write/read latency,
// Fig. 6 WOM-cache hit rates, Fig. 7 WCPCM bank-count scaling — plus the
// ablations DESIGN.md calls out (refresh threshold, organization, write
// pausing, rewrite budget).
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// ExpConfig parameterizes an experiment run. The zero value selects the
// paper's setup with a laptop-scale request budget.
type ExpConfig struct {
	// Geometry defaults to the paper's 16 ranks × 32 banks (§5).
	Geometry pcm.Geometry
	// Timing defaults to the paper's latencies.
	Timing pcm.Timing
	// Requests is the per-benchmark trace length (default 200000). Short
	// traces overstate cold-start α-writes that a long-running benchmark
	// would amortize away.
	Requests int
	// Seed makes every experiment reproducible (default 1).
	Seed int64
	// Profiles defaults to all 20 paper benchmarks.
	Profiles []workload.Profile
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int
	// Ctx, when set, cancels the experiment between individual
	// simulations. Long-running services (cmd/womd) use it for job
	// timeouts and shutdown; nil means context.Background().
	Ctx context.Context
}

func (c ExpConfig) normalize() ExpConfig {
	if c.Geometry == (pcm.Geometry{}) {
		c.Geometry = pcm.DefaultGeometry()
	}
	if c.Timing == (pcm.Timing{}) {
		c.Timing = pcm.DefaultTiming()
	}
	if c.Requests == 0 {
		c.Requests = 200000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Profiles) == 0 {
		c.Profiles = workload.Profiles()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// traceSet generates each (profile, geometry) trace of one experiment once
// and shares it among the simulations that replay it: the same
// (profile, geometry, seed) always yields the same records, so every
// configuration sees identical input. The records are read-only; each
// simulation reads them through its own trace.SliceSource. The set forgets
// a trace once its last simulation has taken it, so the trace is freed when
// that simulation ends; experiments that order their jobs profile by profile
// hold about Parallelism + 1 traces at a time.
type traceSet struct {
	cfg  ExpConfig
	uses map[pcm.Geometry]int // simulations replaying each profile's trace
	mu   sync.Mutex
	live map[traceKey]*sharedTrace
}

type traceKey struct {
	prof int // index into cfg.Profiles
	geom pcm.Geometry
}

type sharedTrace struct {
	once sync.Once
	recs []trace.Record
	err  error
	left int // simulations that have not taken the trace yet
}

// traces returns an empty set for experiments that simulate every profile
// once per entry of geoms, on that geometry. c must be normalized.
func (c ExpConfig) traces(geoms []pcm.Geometry) *traceSet {
	t := &traceSet{cfg: c, uses: make(map[pcm.Geometry]int), live: make(map[traceKey]*sharedTrace)}
	for _, g := range geoms {
		t.uses[g]++
	}
	return t
}

// records returns the trace of profile prof on geometry g, generating it on
// first use; concurrent callers wait for that one generation.
func (t *traceSet) records(prof int, g pcm.Geometry) ([]trace.Record, error) {
	k := traceKey{prof, g}
	t.mu.Lock()
	e := t.live[k]
	if e == nil {
		e = &sharedTrace{left: t.uses[g]}
		t.live[k] = e
	}
	if e.left--; e.left <= 0 {
		delete(t.live, k)
	}
	t.mu.Unlock()
	e.once.Do(func() {
		// A negative request budget replays an empty trace.
		n := max(t.cfg.Requests, 0)
		e.recs, e.err = workload.Generate(t.cfg.Profiles[prof], g, t.cfg.Seed, n)
	})
	return e.recs, e.err
}

// archConfig returns the controller config of architecture a on geometry g.
func (c ExpConfig) archConfig(a core.Arch, g pcm.Geometry) (memctrl.Config, error) {
	opts := core.DefaultOptions()
	opts.Geometry = g
	opts.Timing = c.Timing
	sys, err := core.NewSystem(a, opts)
	if err != nil {
		return memctrl.Config{}, err
	}
	return sys.Config(), nil
}

// archConfigs returns the controller configs of arches on c.Geometry.
func (c ExpConfig) archConfigs(arches ...core.Arch) ([]memctrl.Config, error) {
	out := make([]memctrl.Config, len(arches))
	for i, a := range arches {
		var err error
		if out[i], err = c.archConfig(a, c.Geometry); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runConfig simulates profile prof on one controller config, replaying its
// trace from ts. When c.Ctx carries a ClassCountsFunc (WithClassCounts), the
// simulation's write-class totals are reported through it.
func (c ExpConfig) runConfig(ts *traceSet, cfg memctrl.Config, prof int) (*stats.Run, error) {
	p := c.Profiles[prof]
	classes := classCountsOf(c.Ctx)
	var counter *probe.CounterSink
	if classes != nil && cfg.Probe == nil {
		counter = probe.NewCounterSink()
		cfg.Probe = probe.New(counter)
	}
	if cfg.Events == nil {
		cfg.Events = simEventsOf(c.Ctx)
	}
	ctrl, err := memctrl.New(cfg)
	if err != nil {
		return nil, err
	}
	recs, err := ts.records(prof, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	run, err := ctrl.Run(trace.NewSliceSource(recs))
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", cfg.ArchName(), p.Name, err)
	}
	run.Workload = p.Name
	reportClassCounts(classes, counter)
	return run, nil
}

// runGrid simulates every profile on every config and returns
// runs[profile][config]. Jobs go profile by profile, so each trace is
// generated once and dropped after its last config. c must be normalized.
func (c ExpConfig) runGrid(cfgs []memctrl.Config) ([][]*stats.Run, error) {
	geoms := make([]pcm.Geometry, len(cfgs))
	for i, mc := range cfgs {
		geoms[i] = mc.Geometry
	}
	ts := c.traces(geoms)
	runs := make([][]*stats.Run, len(c.Profiles))
	for p := range runs {
		runs[p] = make([]*stats.Run, len(cfgs))
	}
	err := c.parMap(len(c.Profiles)*len(cfgs), func(i int) error {
		p, v := i/len(cfgs), i%len(cfgs)
		run, err := c.runConfig(ts, cfgs[v], p)
		if err != nil {
			return err
		}
		runs[p][v] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// parMap runs f(0..n-1) on at most c.Parallelism goroutines, stopping
// between simulations if c.Ctx is canceled. c must be normalized.
func (c ExpConfig) parMap(n int, f func(i int) error) error {
	return parMapCtx(c.Ctx, n, c.Parallelism, f)
}

// parMap runs f(0..n-1) on at most workers goroutines and returns the first
// error.
func parMap(n, workers int, f func(i int) error) error {
	return parMapCtx(context.Background(), n, workers, f)
}

// parMapCtx is parMap with cancellation: once ctx is canceled no further
// indices are dispatched (in-flight calls finish) and ctx.Err() is
// returned unless a worker failed first.
func parMapCtx(ctx context.Context, n, workers int, f func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return first
}

// reduction converts a normalized latency into the paper's "% reduction"
// phrasing: 0.80 normalized → 20 % reduction.
func reduction(normalized float64) float64 { return 100 * (1 - normalized) }

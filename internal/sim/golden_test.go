package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// updateGolden rewrites testdata/golden.json from the current simulator.
// An update changes what the model computes: name and justify it in
// CHANGES.md.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json")

const (
	goldenPath     = "testdata/golden.json"
	goldenRequests = 20000
	goldenSeed     = 1
)

// goldenTraces are the four benchmarks the paper-scale fig5 benchmark
// cycles through: write-heavy SPEC, SPLASH-2, balanced and read-heavy
// MiBench.
var goldenTraces = []string{"464.h264ref", "ocean", "qsort", "stringsearch"}

// goldenFile is the committed digest set.
type goldenFile struct {
	Seed     int64             `json:"seed"`
	Requests int               `json:"requests"`
	Digests  map[string]string `json:"digests"`
}

// streamDigest hashes one simulation's full output: every demand completion
// in order, as (time, read, latency) from memctrl.Config.Latency, then the
// stats.Run with its unexported histogram buckets.
type streamDigest struct {
	h   hash.Hash
	buf [17]byte
}

func newStreamDigest() *streamDigest { return &streamDigest{h: sha256.New()} }

func (d *streamDigest) observe(now memctrl.Clock, read bool, lat memctrl.Clock) {
	binary.LittleEndian.PutUint64(d.buf[0:], uint64(now))
	d.buf[8] = 0
	if read {
		d.buf[8] = 1
	}
	binary.LittleEndian.PutUint64(d.buf[9:], uint64(lat))
	d.h.Write(d.buf[:]) //nolint:errcheck // hash writes cannot fail
}

func (d *streamDigest) finish(run *stats.Run) {
	fmt.Fprintf(d.h, "%+v", *run)
}

func (d *streamDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// goldenSource streams one benchmark's trace from its generator.
func goldenSource(t *testing.T, bench string, g pcm.Geometry) trace.Source {
	t.Helper()
	p, err := workload.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(p, g, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewLimit(gen, goldenRequests)
}

// simulate runs one controller configuration over benches and folds every
// run into one digest.
func simulate(t *testing.T, cfg memctrl.Config, benches ...string) string {
	t.Helper()
	d := newStreamDigest()
	cfg.Latency = d.observe
	for _, b := range benches {
		ctrl, err := memctrl.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := ctrl.Run(goldenSource(t, b, cfg.Geometry))
		if err != nil {
			t.Fatal(err)
		}
		d.finish(run)
	}
	return d.sum()
}

// archConfig is the controller configuration of one core architecture.
func archConfig(t *testing.T, a core.Arch, g pcm.Geometry) memctrl.Config {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Geometry = g
	sys, err := core.NewSystem(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Config()
}

// goldenDigests computes every digest: each architecture on each trace (the
// fig5 cells), each ablation/sched/hybrid/fig67/channels variant over the
// four traces, and each registry experiment's whole Result over the four
// traces, which covers how the sim package assembles and feeds its
// simulations.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	g := pcm.DefaultGeometry()
	tm := pcm.DefaultTiming()
	arches := map[core.Arch]string{core.Baseline: "baseline", core.WOMCode: "wom", core.Refresh: "refresh", core.WCPCM: "wcpcm"}
	for a, name := range arches {
		for _, b := range goldenTraces {
			out["cell/"+name+"/"+b] = simulate(t, archConfig(t, a, g), b)
		}
	}

	variants := map[string]memctrl.Config{}
	for _, th := range []float64{0, 5, 10, 25, 50, 75} {
		variants[fmt.Sprintf("rth/%g", th)] = memctrl.Config{Geometry: g, Timing: tm,
			WOM: memctrl.DefaultWOM(), Refresh: &memctrl.RefreshConfig{ThresholdPct: th, TableSize: 5}}
	}
	for _, org := range []memctrl.Organization{memctrl.WideColumn, memctrl.HiddenPage} {
		variants["org/"+org.String()] = memctrl.Config{Geometry: g, Timing: tm,
			WOM: &memctrl.WOMConfig{Rewrites: 2, Org: org}}
	}
	for _, noPausing := range []bool{false, true} {
		variants[fmt.Sprintf("pausing/no-pausing=%t", noPausing)] = memctrl.Config{Geometry: g, Timing: tm,
			WOM: memctrl.DefaultWOM(), Refresh: &memctrl.RefreshConfig{ThresholdPct: 10, TableSize: 5, NoPausing: noPausing}}
	}
	for _, k := range []int{1, 2, 4, 8} {
		variants[fmt.Sprintf("code/k=%d", k)] = memctrl.Config{Geometry: g, Timing: tm,
			WOM: &memctrl.WOMConfig{Rewrites: k}}
	}
	sched := &memctrl.SchedConfig{ReadPriority: true, WriteCancellation: true}
	variants["sched/read-priority"] = memctrl.Config{Geometry: g, Timing: tm,
		Sched: &memctrl.SchedConfig{ReadPriority: true}}
	variants["sched/rd-prio+cancellation"] = memctrl.Config{Geometry: g, Timing: tm, Sched: sched}
	variants["sched/wom+scheduling"] = memctrl.Config{Geometry: g, Timing: tm,
		WOM: memctrl.DefaultWOM(), Sched: sched}
	variants["sched/refresh+scheduling"] = memctrl.Config{Geometry: g, Timing: tm,
		WOM: memctrl.DefaultWOM(), Refresh: memctrl.DefaultRefresh(), Sched: sched}
	variants["hybrid/dram-cache"] = memctrl.Config{Geometry: g, Timing: tm,
		Cache: &memctrl.CacheConfig{Technology: memctrl.DRAMCache}}
	for _, banks := range Fig6BankCounts {
		bg := g
		bg.BanksPerRank = banks
		variants[fmt.Sprintf("fig67/banks=%d", banks)] = archConfig(t, core.WCPCM, bg)
	}
	for name, cfg := range variants {
		out["variant/"+name] = simulate(t, cfg, goldenTraces...)
	}
	for _, ch := range []int{2, 4} {
		out[fmt.Sprintf("variant/channels/%d", ch)] = simulateChannels(t, ch)
	}

	// Parallelism above the trace count makes simulations of one trace
	// overlap on any host.
	const par = 4
	for _, e := range Experiments() {
		p := Params{Requests: goldenRequests, Seed: goldenSeed, Bench: goldenTraces, Parallelism: par}
		switch e.Name {
		case "sweep":
			prof, err := workload.ProfileByName("qsort")
			if err != nil {
				t.Fatal(err)
			}
			prof.Name = "custom"
			p = Params{Requests: goldenRequests, Seed: goldenSeed, Profile: &prof, Parallelism: par}
		case "replay":
			recs, err := trace.Collect(goldenSource(t, "ocean", g))
			if err != nil {
				t.Fatal(err)
			}
			p = Params{Seed: goldenSeed, Trace: recs, TraceLabel: "ocean", Parallelism: par}
		}
		res, err := e.Run(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out["experiment/"+e.Name] = hex.EncodeToString(sum[:])
	}
	return out
}

// simulateChannels digests PCM-refresh striped over n channels; the
// channels run one after another, so their completion streams concatenate
// deterministically.
func simulateChannels(t *testing.T, n int) string {
	t.Helper()
	d := newStreamDigest()
	cfg := memctrl.Config{Geometry: pcm.DefaultGeometry(), Timing: pcm.DefaultTiming(),
		WOM: memctrl.DefaultWOM(), Refresh: memctrl.DefaultRefresh(), Latency: d.observe}
	for _, b := range goldenTraces {
		mc, err := memctrl.NewMultiChannel(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		run, err := mc.Run(goldenSource(t, b, cfg.Geometry))
		if err != nil {
			t.Fatal(err)
		}
		d.finish(run)
	}
	return d.sum()
}

// TestGoldenDigests pins the simulator's output bit for bit. A performance
// refactor must leave every digest unchanged; a deliberate model change
// regenerates them with -update-golden.
func TestGoldenDigests(t *testing.T) {
	got := goldenDigests(t)
	if *updateGolden {
		b, err := json.MarshalIndent(goldenFile{Seed: goldenSeed, Requests: goldenRequests, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != goldenSeed || want.Requests != goldenRequests {
		t.Fatalf("%s records seed %d at %d requests", goldenPath, want.Seed, want.Requests)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if w, ok := want.Digests[name]; !ok {
			t.Errorf("%s: no golden digest", name)
		} else if got[name] != w {
			t.Errorf("%s: digest %.12s, golden %.12s", name, got[name], w)
		}
	}
	for name := range want.Digests {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest no longer computed", name)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"womcpcm/internal/core"
	"womcpcm/internal/pcm"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
	"womcpcm/internal/tsdb"
	"womcpcm/internal/workload"
)

// layerObs collects per-layer samples by metric name. A metric's value is
// the median of its samples, or the 99th percentile for *_p99_ms names.
type layerObs map[string][]float64

func (o layerObs) add(name string, v float64) { o[name] = append(o[name], v) }

func (o layerObs) addAll(name string, vs []float64) { o[name] = append(o[name], vs...) }

func (o layerObs) value(name string) (float64, bool) {
	xs := o[name]
	if len(xs) == 0 {
		return 0, false
	}
	if strings.HasSuffix(name, "_p99_ms") {
		return quantile(xs, 0.99), true
	}
	return median(xs), true
}

// finishTraced completes a traced run: the in-process layer suite and the
// service sweep fill every per-layer metric the workload itself did not
// exercise, then the spans are written out. Metrics the workload measured
// take precedence over the sweep's.
func finishTraced(cfg *config, tr *tracer, obs layerObs, out *outcome) error {
	suite := layerObs{}
	if err := layerSuite(cfg, tr, suite); err != nil {
		return fmt.Errorf("layer suite: %w", err)
	}
	sweep := layerObs{}
	if err := serviceSweep(cfg, tr, sweep, out); err != nil {
		return fmt.Errorf("service sweep: %w", err)
	}
	for _, m := range perLayer {
		for _, src := range []layerObs{obs, suite, sweep} {
			if v, ok := src.value(m.name); ok {
				out.values[m.name] = v
				break
			}
		}
	}
	return tr.write(cfg.traceOut)
}

// layerSuite times the simulator-side layers in-process through their
// public functions: workload.Generate, core.NewSystem + SimulateRecords per
// architecture, a fig5 run against its cells, resultstore Put/Get and tsdb
// ScrapeOnce/QueryRange. Each call into a layer is one span.
func layerSuite(cfg *config, tr *tracer, obs layerObs) error {
	rec := tr.recorder()
	root := rec.StartTrace("layer-suite")
	defer root.End()
	requests := fig5Requests(cfg)
	seed := paramSeed(cfg.seed)
	geom := pcm.DefaultGeometry()

	var genNs, genRecords float64
	simNs := make([]float64, len(archNames))
	events := make([]float64, len(archNames))
	allocs := make([]float64, len(archNames))
	records := make([]float64, len(archNames))
	for _, b := range fig5Traces {
		prof, err := workload.ProfileByName(b)
		if err != nil {
			return err
		}
		sp := rec.StartSpan(root.Context(), "workload.generate")
		t0 := time.Now()
		recs, err := workload.Generate(prof, geom, seed, requests)
		genNs += float64(time.Since(t0))
		sp.SetStr("bench", b)
		sp.End()
		if err != nil {
			return err
		}
		genRecords += float64(len(recs))
		for i, a := range core.Arches() {
			sys, err := core.NewSystem(a, core.DefaultOptions())
			if err != nil {
				return err
			}
			sp := rec.StartSpan(root.Context(), "core.simulate")
			before := readRuntime()
			t0 := time.Now()
			run, err := sys.SimulateRecords(recs)
			d := time.Since(t0)
			after := readRuntime()
			sp.SetStr("arch", archNames[i])
			sp.SetStr("bench", b)
			sp.End()
			if err != nil {
				return err
			}
			simNs[i] += float64(d)
			events[i] += float64(run.Events)
			allocs[i] += after.allocObjects - before.allocObjects
			records[i] += float64(len(recs))
		}
	}
	obs.add("workload.ns_per_record", genNs/genRecords)
	for i, a := range archNames {
		obs.add("core."+a+".ns_per_event", simNs[i]/events[i])
		obs.add("core."+a+".allocs_per_event", allocs[i]/events[i])
		obs.add("core."+a+".events_per_record", events[i]/records[i])
	}

	// sim: a fig5 run at Parallelism 1 against its four cells run alone,
	// alternated three times; the difference of the medians is fig5's own
	// assembly time.
	exp, err := sim.LookupExperiment("fig5")
	if err != nil {
		return err
	}
	bench := fig5Traces[int(uint64(cfg.seed)%uint64(len(fig5Traces)))]
	prof, err := workload.ProfileByName(bench)
	if err != nil {
		return err
	}
	var res *sim.Result
	var runs, cells []float64
	for rep := 0; rep < 3; rep++ {
		sp := rec.StartSpan(root.Context(), "sim.run")
		t0 := time.Now()
		res, err = exp.Run(context.Background(), sim.Params{Requests: requests, Seed: seed, Bench: []string{bench}, Parallelism: 1})
		runs = append(runs, ms(time.Since(t0)))
		sp.End()
		if err != nil {
			return err
		}
		var cellsD time.Duration
		for _, a := range core.Arches() {
			sp := rec.StartSpan(root.Context(), "sim.cell")
			t0 := time.Now()
			_, err := simulateCell(a, prof, geom, seed, requests)
			cellsD += time.Since(t0)
			sp.End()
			if err != nil {
				return err
			}
		}
		cells = append(cells, ms(cellsD))
	}
	obs.add("sim.run_ms", median(runs))
	obs.add("sim.self_ms", median(runs)-median(cells))

	if err := storeSuite(cfg, rec, root.Context(), res, obs); err != nil {
		return err
	}
	return tsdbSuite(cfg, rec, root.Context(), obs)
}

// storeSuite puts distinct copies of a fig5 result into a fresh result
// store and reads each back several times.
func storeSuite(cfg *config, rec *span.Recorder, parent span.Context, res *sim.Result, obs layerObs) error {
	dir, err := os.MkdirTemp(cfg.work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		return err
	}
	n := 128
	if cfg.tiny {
		n = 16
	}
	keys := make([]string, n)
	for i := range keys {
		p := sim.Params{Requests: fig5Requests(cfg), Seed: int64(i + 1), Bench: []string{fig5Traces[0]}}
		key, err := resultstore.KeyForParams("fig5", p, st.SchemaVersion())
		if err != nil {
			st.Close()
			return err
		}
		raw, err := json.Marshal(p)
		if err != nil {
			st.Close()
			return err
		}
		keys[i] = key
		sp := rec.StartSpan(parent, "resultstore.put")
		t0 := time.Now()
		err = st.Put(resultstore.Entry{Key: key, Experiment: "fig5", Schema: st.SchemaVersion(),
			Params: raw, Result: res, CreatedAt: time.Now()})
		obs.add("resultstore.put_us", float64(time.Since(t0))/1e3)
		sp.End()
		if err != nil {
			st.Close()
			return err
		}
	}
	hits, gets := 0, 0
	for rep := 0; rep < 4; rep++ {
		for _, k := range keys {
			sp := rec.StartSpan(parent, "resultstore.get")
			t0 := time.Now()
			_, ok := st.Get(k)
			obs.add("resultstore.get_us", float64(time.Since(t0))/1e3)
			sp.End()
			gets++
			if ok {
				hits++
			}
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	var size int64
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	obs.add("resultstore.hit_frac", float64(hits)/float64(gets))
	obs.add("resultstore.bytes_per_put", float64(size)/float64(n))
	return nil
}

// tsdbSuite feeds a memory-only TSDB one scrape every 5 simulated seconds
// from the committed womd exposition (a womd -cache /metrics body after a
// closed loop of cache hits; see README.md), each scrape advancing every
// sample value, then times range queries over it.
func tsdbSuite(cfg *config, rec *span.Recorder, parent span.Context, obs layerObs) error {
	body, err := os.ReadFile(filepath.Join(cfg.root, "perfbench", "testdata", "metrics.prom"))
	if err != nil {
		return err
	}
	lines := parseFixture(body)
	scrapes := 240
	if cfg.tiny {
		scrapes = 12
	}
	bodies := make([][]byte, scrapes)
	for i := range bodies {
		var b bytes.Buffer
		for _, l := range lines {
			if l.comment {
				b.WriteString(l.text)
			} else {
				b.WriteString(l.text)
				b.WriteByte(' ')
				b.WriteString(strconv.FormatFloat(l.value+float64(i), 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
		bodies[i] = b.Bytes()
	}
	now := time.Unix(1_700_000_000, 0)
	db, err := tsdb.Open(tsdb.Options{Now: func() time.Time { return now }})
	if err != nil {
		return err
	}
	defer db.Close()
	for i := range bodies {
		now = now.Add(5 * time.Second)
		body := bodies[i]
		sp := rec.StartSpan(parent, "tsdb.scrape")
		t0 := time.Now()
		db.ScrapeOnce(func(w io.Writer) { w.Write(body) }) //nolint:errcheck // in-memory buffer
		obs.add("tsdb.scrape_ms", ms(time.Since(t0)))
		sp.End()
	}
	var self bytes.Buffer
	db.WriteProm(&self)
	exported := promValues(self.String())
	if s := exported["womd_history_scrapes_total"]; s > 0 {
		obs.add("tsdb.samples_per_scrape", exported["womd_history_samples_total"]/s)
	}
	endMs := now.UnixMilli()
	q := tsdb.RangeQuery{Metric: "womd_runtime_alloc_bytes_total", StartMs: endMs - int64(scrapes)*5000,
		EndMs: endMs, StepMs: 30000, Agg: "rate"}
	for i := 0; i < 50; i++ {
		sp := rec.StartSpan(parent, "tsdb.query_range")
		t0 := time.Now()
		_, err := db.QueryRange(q)
		obs.add("tsdb.query_range_ms", ms(time.Since(t0)))
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// fixtureLine is one exposition line: a comment kept verbatim, or a sample
// split into its name-and-labels text and value.
type fixtureLine struct {
	comment bool
	text    string
	value   float64
}

func parseFixture(body []byte) []fixtureLine {
	var out []fixtureLine
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if line[0] == '#' || i < 0 || err != nil {
			out = append(out, fixtureLine{comment: true, text: line})
			continue
		}
		out = append(out, fixtureLine{text: line[:i], value: v})
	}
	return out
}

// promValues parses exposition text into sample name (with labels) → value.
func promValues(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range parseFixture([]byte(text)) {
		if !l.comment {
			out[l.text] = l.value
		}
	}
	return out
}

package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"womcpcm/internal/sim"
	"womcpcm/internal/span"
)

// smallRequests is the per-job request count of cluster-miss jobs and the
// service sweep.
func smallRequests(cfg *config) int {
	if cfg.tiny {
		return 500
	}
	return 2000
}

func tenantsPath(cfg *config) string { return filepath.Join(cfg.root, "perfbench", "tenants.json") }

// fig5Job is one single-trace fig5 submission.
func fig5Job(bench string, requests int, seed int64, tenant string) jobRequest {
	return jobRequest{Experiment: "fig5", Tenant: tenant,
		Params: sim.Params{Requests: requests, Seed: seed, Bench: []string{bench}}}
}

// opLog is one client goroutine's record of a measured stretch; logs are
// merged after the goroutines finish.
type opLog struct {
	latMs, gapMs, sseLagMs []float64
	submitUs, deleteUs     []float64
	attempted, failed      int
	wrong, sheds           int
	views                  []jobView   // terminal views of executed jobs
	spans                  []span.Span // fetched womd spans of sampled jobs
	checks                 []resultCheck
	done                   []jobRequest  // submissions that succeeded
	ops                    []interval    // spans of the ops that succeeded
	start                  time.Time     // when the loop began
	elapsed                time.Duration // how long it ran
}

func (l *opLog) merge(o *opLog) {
	l.latMs = append(l.latMs, o.latMs...)
	l.gapMs = append(l.gapMs, o.gapMs...)
	l.sseLagMs = append(l.sseLagMs, o.sseLagMs...)
	l.submitUs = append(l.submitUs, o.submitUs...)
	l.deleteUs = append(l.deleteUs, o.deleteUs...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.wrong += o.wrong
	l.sheds += o.sheds
	l.views = append(l.views, o.views...)
	l.spans = append(l.spans, o.spans...)
	l.checks = append(l.checks, o.checks...)
	l.done = append(l.done, o.done...)
	l.ops = append(l.ops, o.ops...)
}

// resultCheck is a fetched result to compare, after measuring, against an
// in-process run of the same params.
type resultCheck struct {
	req jobRequest
	raw json.RawMessage
}

// fail records a failed op.
func (l *opLog) fail(format string, args ...any) {
	l.failed++
	if l.failed <= 5 {
		logf(format, args...)
	}
}

// sampler decides which traced ops fetch their womd trace: a seeded coin
// with probability p, at most limit fetches per client.
type sampler struct {
	rng   *rand.Rand
	p     float64
	limit int
	taken int
}

func (s *sampler) take() bool {
	if s == nil || s.taken >= s.limit || s.rng.Float64() >= s.p {
		return false
	}
	s.taken++
	return true
}

// fetchTrace adds a sampled job's womd spans to the run's span file and to
// the log.
func fetchTrace(cl *client, tr *tracer, l *opLog, id string, anchor time.Time) {
	spans, err := cl.jobTrace(id)
	if err != nil {
		logf("trace of %s: %v", id, err)
		return
	}
	tr.addFetched(spans, anchor.UnixNano())
	l.spans = append(l.spans, spans...)
}

// closedLoop runs op on n client goroutines until dur elapses and merges
// their logs. op is called with the client index and that client's log.
func closedLoop(n int, dur time.Duration, op func(c int, l *opLog)) *opLog {
	logs := make([]opLog, n)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			var last time.Time
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if !last.IsZero() {
					l.gapMs = append(l.gapMs, ms(t0.Sub(last)))
				}
				failed := l.failed
				op(c, l)
				last = time.Now()
				if l.failed == failed {
					l.ops = append(l.ops, interval{t0, last})
				}
			}
		}(c)
	}
	wg.Wait()
	all := &opLog{start: start, elapsed: time.Since(start)}
	for i := range logs {
		all.merge(&logs[i])
	}
	return all
}

// rate is a closed loop's ops_per_s: the median over one-second windows
// (see windowRate).
func (l *opLog) rate() float64 { return windowRate(l.ops, l.start, l.elapsed, time.Second) }

// closedWorkload measures a closed-loop service workload against the
// daemons ws and adds its op counts to out. An untraced run measures for
// the whole time and fills the end-to-end metrics; a traced run measures
// half untraced and half traced and fills the per-layer metrics, extra
// (when set) adding the workload's own layer samples. makeOp builds the op
// for a tracer and its trace samplers, both nil when untraced; p is the
// share of traced ops whose womd trace is fetched.
func closedWorkload(cfg *config, ws []*womd, out *outcome, p float64,
	makeOp func(tr *tracer, smp []*sampler) func(c int, l *opLog),
	extra func(obs layerObs, logs []*opLog) error) ([]*opLog, error) {
	dur := time.Duration(cfg.seconds * float64(time.Second))
	count := func(logs ...*opLog) []*opLog {
		for _, l := range logs {
			out.attempted += l.attempted
			out.failed += l.failed
			out.wrong += l.wrong
		}
		return logs
	}
	if !cfg.trace {
		var l *opLog
		before, after, err := measure(ws, func() { l = closedLoop(cfg.nproc, dur, makeOp(nil, nil)) })
		if err != nil {
			return nil, err
		}
		out.values["ops_per_s"] = l.rate()
		latencySummary(out, cfg.workload, l.latMs)
		return count(l), serverEndToEnd(out, ws, before, after, l.attempted)
	}
	plain := closedLoop(cfg.nproc, dur/2, makeOp(nil, nil))
	tr := newTracer(cfg.seed)
	smp := newSamplers(cfg.seed, cfg.nproc, p)
	var traced *opLog
	before, after, err := measure(ws, func() { traced = closedLoop(cfg.nproc, dur/2, makeOp(tr, smp)) })
	if err != nil {
		return nil, err
	}
	logs := count(plain, traced)
	obs := layerObs{}
	observeJobs(obs, traced)
	serverLayers(obs, before, after, traced.attempted)
	obs.add("sched.shed_frac", float64(traced.sheds)/float64(max(traced.attempted, 1)))
	obs.addAll("loadgen.lag_p99_ms", traced.gapMs)
	obs.add("trace.overhead_frac", median(traced.latMs)/median(plain.latMs)-1)
	if extra != nil {
		if err := extra(obs, logs); err != nil {
			return nil, err
		}
	}
	return logs, finishTraced(cfg, tr, obs, out)
}

// newSamplers gives each of n clients its own seeded trace sampler.
func newSamplers(seed int64, n int, p float64) []*sampler {
	rng := rand.New(rand.NewSource(seed))
	s := make([]*sampler, n)
	for i := range s {
		s[i] = &sampler{rng: rand.New(rand.NewSource(rng.Int63())), p: p, limit: 32}
	}
	return s
}

// serverSnap sums counters over the serving processes of a workload.
type serverSnap struct {
	cpu                    time.Duration
	alloc, gc, spans, heap float64
}

// snapServers reads CPU from /proc and the runtime and span counters from
// each daemon's /metrics.
func snapServers(ws []*womd) (serverSnap, error) {
	var s serverSnap
	for _, w := range ws {
		cpu, err := procCPU(w.pid)
		if err != nil {
			return s, err
		}
		s.cpu += cpu
		cl := newClient(w.url, 1)
		m, err := cl.metrics()
		cl.close()
		if err != nil {
			return s, err
		}
		s.alloc += m["womd_runtime_alloc_bytes_total"]
		s.gc += m["womd_runtime_gc_cycles_total"]
		s.spans += m["womd_spans_recorded_total"]
		s.heap += m["womd_runtime_heap_inuse_bytes"]
	}
	return s, nil
}

// pollSettle waits past one runtime-poller interval so /metrics reflects
// every allocation made so far.
func pollSettle() { time.Sleep(300 * time.Millisecond) }

// measure runs body between two server snapshots: CPU is read right at the
// body's edges, the allocation counters after a poller interval of quiet.
func measure(ws []*womd, body func()) (before, after serverSnap, err error) {
	pollSettle()
	if before, err = snapServers(ws); err != nil {
		return
	}
	cpu0 := before.cpu
	body()
	mid, err := snapServers(ws)
	if err != nil {
		return
	}
	pollSettle()
	if after, err = snapServers(ws); err != nil {
		return
	}
	before.cpu, after.cpu = cpu0, mid.cpu
	return
}

// serverEndToEnd fills the metrics read from the serving processes.
func serverEndToEnd(out *outcome, ws []*womd, before, after serverSnap, ops int) error {
	n := float64(max(ops, 1))
	out.values["cpu_ms_per_op"] = ms(after.cpu-before.cpu) / n
	out.values["alloc_bytes_per_op"] = (after.alloc - before.alloc) / n
	var rss float64
	for _, w := range ws {
		r, err := peakRSS(w.pid)
		if err != nil {
			return err
		}
		rss += r
	}
	out.values["peak_rss_mb"] = rss / (1 << 20)
	return nil
}

// serverLayers records the per-op counters of a traced stretch.
func serverLayers(obs layerObs, before, after serverSnap, ops int) {
	n := float64(max(ops, 1))
	obs.add("span.spans_per_op", (after.spans-before.spans)/n)
	obs.add("runtime.gc_cycles_per_op", (after.gc-before.gc)/n)
	obs.add("runtime.heap_inuse_mb", after.heap/(1<<20))
}

// observeJobs turns terminal job views and fetched womd spans into layer
// samples.
func observeJobs(obs layerObs, l *opLog) {
	for _, v := range l.views {
		sub, st, fin := v.submitted(), v.started(), v.finished()
		if v.Cached || st.IsZero() || fin.IsZero() {
			continue
		}
		wait := ms(st.Sub(sub))
		obs.add("engine.queue_wait_ms", wait)
		obs.add("engine.execute_ms", ms(fin.Sub(st)))
		for _, t := range tenantNames {
			if v.Tenant == t {
				obs.add("sched."+t+".queue_wait_p99_ms", wait)
			}
		}
	}
	ix := indexSpans(l.spans)
	local := func(service string) bool { return service != "worker" }
	obs.addAll("engine.admission_us", ix.durations("admission", 1e3, local))
	obs.addAll("engine.store_us", ix.durations("store", 1e3, local))
	obs.addAll("engine.store_hit_us", ix.durations("store_hit", 1e3, local))
	obs.addAll("cluster.dispatch_ms", ix.durations("dispatch", 1e6, nil))
	obs.addAll("cluster.worker_execute_ms", ix.durations("execute", 1e6, func(s string) bool { return s == "worker" }))
	for _, d := range ix.byName["dispatch"] {
		obs.add("cluster.overhead_ms", float64(selfNs(d, ix.kids[d.SpanID]))/1e6)
	}
	obs.addAll("engine.sse_done_lag_ms", l.sseLagMs)
	obs.addAll("http.submit_us", l.submitUs)
	obs.addAll("http.delete_us", l.deleteUs)
}

// verifyResults compares each fetched result with an in-process
// Experiment.Run on the same params, as canonical JSON, and returns how
// many differ.
func verifyResults(checks []resultCheck) (int, error) {
	wrong := 0
	for _, c := range checks {
		exp, err := sim.LookupExperiment(c.req.Experiment)
		if err != nil {
			return 0, err
		}
		res, err := exp.Run(context.Background(), c.req.Params)
		if err != nil {
			return 0, err
		}
		local, err := json.Marshal(res)
		if err != nil {
			return 0, err
		}
		want, err := resultDigest(local)
		if err != nil {
			return 0, err
		}
		got, err := resultDigest(c.raw)
		if err != nil || got != want {
			logf("result of %+v differs from the in-process run", c.req.Params)
			wrong++
		}
	}
	return wrong, nil
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 11

// setupRepeated runs a workload's set-up setupRepeats times and reports the
// median duration as setup_s. Each set-up is torn down before the next
// starts; the last one's state is kept for measuring.
func setupRepeated[T any](out *outcome, setup func() (T, error), teardown func(T)) (T, error) {
	var durs []float64
	var cur T
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(cur)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		cur = s
	}
	out.values["setup_s"] = median(durs)
	return cur, nil
}

// cacheDir makes a fresh result-store directory under the run's scratch.
func cacheDir(cfg *config) (string, error) {
	return os.MkdirTemp(cfg.work, "cache-")
}

package main

import (
	"math"
	"sort"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, in BENCHMARK.json
// order. Every workload prints every one of them.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "frac"},
}

// archNames are the metric-name spellings of core.Arches(), in that order.
var archNames = []string{"baseline", "wom", "refresh", "wcpcm"}

// tenantNames are the tenant classes of tenants.json.
var tenantNames = []string{"interactive", "batch", "best-effort"}

// perLayer lists the metrics a --trace 1 run prints.
var perLayer = func() []metricDecl {
	d := []metricDecl{{"workload.ns_per_record", "ns"}}
	for _, a := range archNames {
		d = append(d,
			metricDecl{"core." + a + ".ns_per_event", "ns"},
			metricDecl{"core." + a + ".allocs_per_event", "count"},
			metricDecl{"core." + a + ".events_per_record", "count"})
	}
	d = append(d,
		metricDecl{"sim.run_ms", "ms"},
		metricDecl{"sim.self_ms", "ms"},
		metricDecl{"resultstore.get_us", "us"},
		metricDecl{"resultstore.hit_frac", "frac"},
		metricDecl{"resultstore.put_us", "us"},
		metricDecl{"resultstore.bytes_per_put", "B"},
		metricDecl{"engine.admission_us", "us"},
		metricDecl{"engine.store_hit_us", "us"},
		metricDecl{"http.submit_us", "us"},
		metricDecl{"http.delete_us", "us"},
		metricDecl{"engine.queue_wait_ms", "ms"},
		metricDecl{"engine.execute_ms", "ms"},
		metricDecl{"engine.store_us", "us"},
		metricDecl{"engine.sse_done_lag_ms", "ms"},
		metricDecl{"sched.shed_frac", "frac"})
	for _, t := range tenantNames {
		d = append(d, metricDecl{"sched." + t + ".queue_wait_p99_ms", "ms"})
	}
	d = append(d,
		metricDecl{"cluster.dispatch_ms", "ms"},
		metricDecl{"cluster.worker_execute_ms", "ms"},
		metricDecl{"cluster.overhead_ms", "ms"},
		metricDecl{"cluster.local_fallbacks", "count"},
		metricDecl{"cluster.requeues", "count"},
		metricDecl{"tsdb.scrape_ms", "ms"},
		metricDecl{"tsdb.samples_per_scrape", "count"},
		metricDecl{"tsdb.query_range_ms", "ms"},
		metricDecl{"span.spans_per_op", "count"},
		metricDecl{"runtime.gc_cycles_per_op", "count"},
		metricDecl{"runtime.heap_inuse_mb", "MiB"},
		metricDecl{"loadgen.lag_p99_ms", "ms"},
		metricDecl{"trace.overhead_frac", "frac"})
	return d
}()

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile returns the q-quantile of xs and warns on standard error when
// fewer than ten samples lie beyond it, the rule the tail percentile of
// each workload was chosen by.
func tailQuantile(workload string, xs []float64, q float64) float64 {
	beyond := int(float64(len(xs)) * (1 - q))
	if beyond < 10 {
		logf("%s: only %d of %d samples beyond p%g; the tail is under-sampled", workload, beyond, len(xs), 100*q)
	}
	return quantile(xs, q)
}

// interval is one completed op's wall-clock span.
type interval struct{ start, end time.Time }

// windowRate is a closed loop's throughput: the median, over consecutive
// windows of length w from start, of the ops completed per second in each
// window, an op counting in each window in proportion to the share of its
// span inside it. A stall confined to a few windows leaves it unchanged.
// With fewer than three whole windows it is ops over elapsed time.
func windowRate(ops []interval, start time.Time, elapsed, w time.Duration) float64 {
	n := int(elapsed / w)
	if n < 3 {
		return float64(len(ops)) / elapsed.Seconds()
	}
	done := make([]float64, n)
	for _, op := range ops {
		d := op.end.Sub(op.start)
		for i := max(int(op.start.Sub(start)/w), 0); i < n; i++ {
			ws := start.Add(time.Duration(i) * w)
			if !ws.Before(op.end) {
				break
			}
			a, b := op.start, op.end
			if a.Before(ws) {
				a = ws
			}
			if we := ws.Add(w); b.After(we) {
				b = we
			}
			if d <= 0 {
				done[i]++
				break
			}
			done[i] += float64(b.Sub(a)) / float64(d)
		}
	}
	for i := range done {
		done[i] /= w.Seconds()
	}
	return median(done)
}

// tailQuantiles is each workload's latency_tail_ms percentile. Each has at
// least ten samples beyond it in a 20 s run: sim-fig5 ~60 ops (p90 would
// have 6), cluster-miss 3 000 to 6 500 by host speed. cluster-miss stops at
// p90, below the highest such percentile, because the higher ones are not
// steady on a shared 2-CPU host: over four ten-seed sets its p99 median
// moved 33 %, its p90 22 %.
var tailQuantiles = map[string]float64{
	"sim-fig5":     0.75,
	"cluster-miss": 0.9,
}

// latencySummary fills the latency metrics of a run from its per-op
// latencies in milliseconds.
func latencySummary(out *outcome, workload string, latMs []float64) {
	tailQ := tailQuantiles[workload]
	out.values["latency_p50_ms"] = median(latMs)
	out.values["latency_tail_ms"] = tailQuantile(workload, latMs, tailQ)
	logf("%s: %d latency samples, tail = p%g; p90 %.3fms p99 %.3fms p99.9 %.3fms", workload, len(latMs), 100*tailQ,
		quantile(latMs, 0.9), quantile(latMs, 0.99), quantile(latMs, 0.999))
}

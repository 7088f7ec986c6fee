package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"

	"womcpcm/internal/probe"
	"womcpcm/internal/span"
)

// tracer owns the benchmark's own span recorder for a traced run, plus the
// womd-side spans fetched for sampled jobs. Nil-safe: a nil *tracer (an
// untraced phase) records nothing, like a nil span.Recorder.
type tracer struct {
	rec *span.Recorder

	mu      sync.Mutex
	fetched []span.Span
}

func newTracer(seed int64) *tracer {
	return &tracer{rec: span.New(span.Config{Service: "perfbench", Capacity: 1 << 15, Seed: uint64(seed) | 1})}
}

// recorder returns the span recorder, nil when tracing is off.
func (t *tracer) recorder() *span.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// addFetched keeps womd spans fetched for one job, re-anchored so the
// trace's earliest span starts at anchorNs. GET /v1/jobs/{id}/trace
// serves times relative to the trace's first span; the benchmark's submit
// span, which parents the job, is the natural anchor.
func (t *tracer) addFetched(spans []span.Span, anchorNs int64) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		s.StartNs += anchorNs
		t.fetched = append(t.fetched, s)
	}
}

// all returns every span: the benchmark's own plus the fetched ones.
func (t *tracer) all() []span.Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(t.rec.Snapshot(), t.fetched...)
}

// write saves every span as Chrome trace-event JSON (womtool spans renders
// it to an HTML waterfall) and logs each layer's self time.
func (t *tracer) write(path string) error {
	spans := t.all()
	b, err := json.Marshal(span.ChromeTraceOf(spans))
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	logf("wrote %d spans to %s", len(spans), path)
	for _, st := range selfTimes(spans) {
		logf("  self %-28s n=%-6d total=%9.2fms self=%9.2fms", st.name, st.count, st.totalMs, st.selfMs)
	}
	return nil
}

// spansOfChrome converts the Chrome trace-event form served by
// GET /v1/jobs/{id}/trace back into spans. Times stay relative to the
// trace's first span.
func spansOfChrome(tr probe.ChromeTrace) []span.Span {
	services := make(map[int]string)
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if n, ok := ev.Args["name"].(string); ok {
				services[ev.Pid] = n
			}
		}
	}
	var out []span.Span
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := span.Span{
			Name:    ev.Name,
			Service: services[ev.Pid],
			StartNs: int64(ev.Ts * 1e3),
			DurNs:   int64(ev.Dur * 1e3),
			Attrs:   span.Attrs{},
		}
		for k, v := range ev.Args {
			switch k {
			case "span_id":
				s.SpanID, _ = v.(string)
			case "parent_id":
				s.Parent, _ = v.(string)
			case "trace_id":
				s.TraceID, _ = v.(string)
			default:
				s.Attrs[k] = v
			}
		}
		out = append(out, s)
	}
	return out
}

// layerTime is one span name's total and self time across a span set.
type layerTime struct {
	name            string
	count           int
	totalMs, selfMs float64
}

// selfTimes computes, per span name (prefixed by its service), the total
// span time and the self time: each span's duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span.Span) []layerTime {
	kids := make(map[string][]span.Span)
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		key := s.Service + "/" + s.Name
		lt := agg[key]
		if lt == nil {
			lt = &layerTime{name: key}
			agg[key] = lt
		}
		lt.count++
		lt.totalMs += float64(s.DurNs) / 1e6
		lt.selfMs += float64(selfNs(s, kids[s.SpanID])) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// selfNs is s's duration minus the union of its children's intervals
// clipped to s.
func selfNs(s span.Span, children []span.Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.StartNs, s.StartNs), min(c.End(), s.End())
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), int64(-1<<62)
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.DurNs - covered
}

// spanIndex groups fetched job spans by name and by parent.
type spanIndex struct {
	byName map[string][]span.Span
	kids   map[string][]span.Span // parent span id → children
}

func indexSpans(spans []span.Span) spanIndex {
	ix := spanIndex{byName: map[string][]span.Span{}, kids: map[string][]span.Span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != "" {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations of the spans named name whose service
// satisfies keep (nil keeps all), in units of per nanoseconds.
func (ix spanIndex) durations(name string, per float64, keep func(service string) bool) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		if keep == nil || keep(s.Service) {
			out = append(out, float64(s.DurNs)/per)
		}
	}
	return out
}

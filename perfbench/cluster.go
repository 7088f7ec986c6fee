package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/span"
)

type clusterState struct{ coord, worker *womd }

// reapEvery is how many finished cluster ops pass between two reaps of the
// worker's job records.
const reapEvery = 64

// workerReaper deletes the worker-side records of dispatched jobs whose
// coordinator job has finished. The coordinator never deletes them, so
// without this a worker holds every job it ran, refuses dispatch once it
// reaches engine.Config.MaxJobs (4096), and the coordinator then runs every
// later job locally. A worker job is matched to its coordinator job by
// trace id (the worker's job span parents under the dispatch span).
type workerReaper struct {
	cl *client // to the worker

	mu   sync.Mutex
	done map[string]bool // trace ids of finished ops not yet reaped
	n    int
}

func newWorkerReaper(w *womd) *workerReaper {
	return &workerReaper{cl: newClient(w.url, 1), done: make(map[string]bool)}
}

// finished records a finished op's coordinator traceparent and reaps every
// reapEvery ops.
func (r *workerReaper) finished(traceparent string) error {
	tc, ok := span.ParseTraceparent(traceparent)
	if !ok {
		return fmt.Errorf("job has no traceparent %q to find its worker job by", traceparent)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done[tc.TraceID] = true
	if r.n++; r.n%reapEvery != 0 {
		return nil
	}
	jobs, err := r.cl.jobs()
	if err != nil {
		return err
	}
	for _, v := range jobs {
		tc, ok := span.ParseTraceparent(v.Traceparent)
		if !ok || !r.done[tc.TraceID] || !engine.State(v.State).Terminal() {
			continue
		}
		if err := r.cl.remove(v.ID, span.Context{}); err != nil {
			return err
		}
		delete(r.done, tc.TraceID)
	}
	return nil
}

func (r *workerReaper) close() { r.cl.close() }

// startCluster launches a coordinator (with a fresh result store and the
// tenant queue of tenants.json) and one worker, and waits until the worker
// is registered and ready.
func startCluster(cfg *config) (clusterState, error) {
	dir, err := cacheDir(cfg)
	if err != nil {
		return clusterState{}, err
	}
	coord, err := startWomd(cfg, "coordinator", "-role", "coordinator", "-cache", dir, "-tenants", tenantsPath(cfg))
	if err != nil {
		return clusterState{}, err
	}
	worker, err := startWomd(cfg, "worker", "-role", "worker", "-coordinator", coord.url)
	if err != nil {
		stopWomd(coord)
		return clusterState{}, err
	}
	cs := clusterState{coord: coord, worker: worker}
	if err := waitRegistered(coord.url, 20*time.Second); err != nil {
		stopCluster(cs)
		return clusterState{}, err
	}
	return cs, nil
}

func stopCluster(cs clusterState) {
	stopWomd(cs.worker)
	stopWomd(cs.coord)
}

// waitRegistered polls the coordinator until one ready worker is listed.
func waitRegistered(base string, limit time.Duration) error {
	cl := newClient(base, 1)
	defer cl.close()
	deadline := time.Now().Add(limit)
	for {
		var v struct {
			Workers []struct {
				Ready bool `json:"ready"`
			} `json:"workers"`
		}
		_, err := cl.do("GET", "/cluster/v1/workers", nil, span.Context{}, &v)
		if err == nil && len(v.Workers) > 0 && v.Workers[0].Ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no worker registered with %s", base)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// missOp is one closed-loop cache-miss job followed to done over SSE:
// submit, wait, check, (sample result and trace), delete. Sampling time is
// excluded from the op's latency. Each client rotates its jobs over the
// tenants of tenants.json, starting at its own index. With a reaper (a
// coordinator), every job must have run on the worker, and the worker's
// record of it is reaped once the op is done, outside its latency.
func missOp(cfg *config, cl *client, tr *tracer, smp []*sampler, seeds []int64, rngs []*rand.Rand,
	name string, checks int, reap *workerReaper) func(c int, l *opLog) {
	rec := tr.recorder()
	return func(c int, l *opLog) {
		seeds[c]++
		req := fig5Job(fig5Traces[rngs[c].Intn(len(fig5Traces))], smallRequests(cfg), seeds[c],
			tenantNames[(c+l.attempted)%len(tenantNames)])
		l.attempted++
		root := rec.StartTrace(name + ".op")
		defer root.End()
		t0 := time.Now()
		sp := rec.StartSpan(root.Context(), "http.submit")
		v, err := cl.submit(req, sp.Context())
		sp.End()
		l.submitUs = append(l.submitUs, float64(time.Since(t0))/1e3)
		if err != nil {
			if errors.Is(err, errShed) {
				l.sheds++
			}
			l.fail("%s: submit: %v", name, err)
			return
		}
		opened := time.Now()
		sp = rec.StartSpan(root.Context(), "http.sse_wait")
		v, at, err := cl.waitDone(v.ID, sp.Context())
		sp.End()
		t1 := time.Now()
		if err != nil {
			l.fail("%s: %v", name, err)
			return
		}
		fin := v.finished()
		switch {
		case v.State != "succeeded":
			l.fail("%s: job %s ended %s: %s", name, v.ID, v.State, v.Error)
		case reap != nil && v.Worker == "":
			l.wrong++
			l.fail("%s: job %s ran locally on the coordinator", name, v.ID)
		default:
			l.views = append(l.views, v)
			l.done = append(l.done, req)
			if opened.Before(fin) {
				l.sseLagMs = append(l.sseLagMs, ms(at.Sub(fin)))
			}
			if len(l.checks) < checks {
				if _, raw, err := cl.result(v.ID); err == nil {
					l.checks = append(l.checks, resultCheck{req: req, raw: raw})
				}
			}
			if smp != nil && smp[c].take() {
				fetchTrace(cl, tr, l, v.ID, t0)
			}
		}
		sp = rec.StartSpan(root.Context(), "http.delete")
		td := time.Now()
		err = cl.remove(v.ID, sp.Context())
		del := time.Since(td)
		sp.End()
		l.deleteUs = append(l.deleteUs, float64(del)/1e3)
		if err != nil {
			l.fail("%s: delete: %v", name, err)
			return
		}
		l.latMs = append(l.latMs, ms(t1.Sub(t0)+del))
		if reap != nil && v.Worker != "" {
			if err := reap.finished(v.Traceparent); err != nil {
				l.fail("%s: reaping worker jobs: %v", name, err)
			}
		}
	}
}

func runClusterMiss(cfg *config) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	cs, err := setupRepeated(out, func() (clusterState, error) { return startCluster(cfg) }, stopCluster)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cl := newClient(cs.coord.url, cfg.nproc)
	defer cl.close()
	ws := []*womd{cs.coord, cs.worker}
	reap := newWorkerReaper(cs.worker)
	defer reap.close()
	seeds := make([]int64, cfg.nproc)
	rngs := make([]*rand.Rand, cfg.nproc)
	for i := range seeds {
		seeds[i] = rng.Int63n(1<<40) + int64(i)<<41
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	const checks = 4
	makeOp := func(tr *tracer, smp []*sampler) func(c int, l *opLog) {
		return missOp(cfg, cl, tr, smp, seeds, rngs, "cluster-miss", checks, reap)
	}
	counters := func(obs layerObs, logs []*opLog) error { return clusterCounters(obs, cs.coord, logs...) }
	logs, err := closedWorkload(cfg, ws, out, 0.25, makeOp, counters)
	if err != nil {
		return nil, err
	}
	var checkList []resultCheck
	for _, l := range logs {
		checkList = append(checkList, l.checks...)
	}
	wrong, err := verifyResults(checkList)
	if err != nil {
		return nil, err
	}
	out.wrong += wrong
	out.failed += wrong
	return out, nil
}

// clusterCounters records the cluster layer's counts: jobs that ran
// locally instead of on the worker, and the coordinator's requeues.
func clusterCounters(obs layerObs, coord *womd, logs ...*opLog) error {
	fallbacks := 0
	for _, l := range logs {
		fallbacks += l.wrong
	}
	cl := newClient(coord.url, 1)
	defer cl.close()
	m, err := cl.metrics()
	if err != nil {
		return err
	}
	obs.add("cluster.local_fallbacks", float64(fallbacks))
	obs.add("cluster.requeues", m["womd_cluster_requeue_total"])
	return nil
}

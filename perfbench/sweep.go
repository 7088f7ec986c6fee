package main

import (
	"math/rand"
	"time"
)

// serviceSweep exercises every service layer briefly, traced, so a traced
// run reports each per-layer metric even where its workload bypasses the
// layer: a standalone womd with -cache and -tenants runs a few jobs per
// tenant as misses and then as cache hits, and a coordinator plus worker
// runs a few dispatched jobs.
func serviceSweep(cfg *config, tr *tracer, obs layerObs, out *outcome) error {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	n := 9
	if cfg.tiny {
		n = 3
	}
	dir, err := cacheDir(cfg)
	if err != nil {
		return err
	}
	w, err := startWomd(cfg, "sweep-womd", "-cache", dir, "-tenants", tenantsPath(cfg))
	if err != nil {
		return err
	}
	cl := newClient(w.url, 1)
	seeds := []int64{rng.Int63n(1 << 40)}
	rngs := []*rand.Rand{rand.New(rand.NewSource(rng.Int63()))}
	all := []*sampler{{rng: rng, p: 1, limit: 1 << 30}}
	miss := &opLog{}
	op := missOp(cfg, cl, tr, all, seeds, rngs, "sweep", 0, nil)
	for i := 0; i < n; i++ {
		op(0, miss)
	}
	// The same submissions again, now served from the cache.
	hits := &opLog{}
	rec := tr.recorder()
	for _, req := range miss.done {
		hits.attempted++
		root := rec.StartTrace("sweep.hit")
		t0 := time.Now()
		sp := rec.StartSpan(root.Context(), "http.submit")
		v, err := cl.submit(req, sp.Context())
		sp.End()
		hits.submitUs = append(hits.submitUs, float64(time.Since(t0))/1e3)
		if err != nil {
			hits.fail("sweep: hit submit: %v", err)
			root.End()
			continue
		}
		if !v.Cached {
			hits.wrong++
			hits.fail("sweep: job %s not served from the cache", v.ID)
		}
		fetchTrace(cl, tr, hits, v.ID, t0)
		sp = rec.StartSpan(root.Context(), "http.delete")
		td := time.Now()
		err = cl.remove(v.ID, sp.Context())
		sp.End()
		hits.deleteUs = append(hits.deleteUs, float64(time.Since(td))/1e3)
		if err != nil {
			hits.fail("sweep: delete: %v", err)
		}
		root.End()
	}
	cl.close()
	snap, err := snapServers([]*womd{w})
	stopWomd(w)
	if err != nil {
		return err
	}
	serverLayers(obs, serverSnap{}, snap, miss.attempted+hits.attempted)
	observeJobs(obs, miss)
	observeJobs(obs, hits)

	cs, err := startCluster(cfg)
	if err != nil {
		return err
	}
	defer stopCluster(cs)
	ccl := newClient(cs.coord.url, 1)
	defer ccl.close()
	reap := newWorkerReaper(cs.worker)
	defer reap.close()
	clog := &opLog{}
	cop := missOp(cfg, ccl, tr, all, seeds, rngs, "sweep-cluster", 0, reap)
	for i := 0; i < n; i++ {
		cop(0, clog)
	}
	observeJobs(obs, clog)
	if err := clusterCounters(obs, cs.coord, clog); err != nil {
		return err
	}
	for _, l := range []*opLog{miss, hits, clog} {
		out.attempted += l.attempted
		out.failed += l.failed
		out.wrong += l.wrong
	}
	obs.add("sched.shed_frac", float64(miss.sheds)/float64(max(miss.attempted, 1)))
	return nil
}

package sim

import (
	"slices"
	"sync"
	"testing"

	"womcpcm/internal/pcm"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// TestTraceSetSharesAndDrops checks the experiment trace cache: the
// simulations of one (profile, geometry) get one generated slice, even
// concurrently; another geometry gets its own trace while the first is
// live; and the set forgets each trace once its last simulation has taken
// it.
func TestTraceSetSharesAndDrops(t *testing.T) {
	cfg := fastConfig(t).normalize()
	cfg.Requests = 2000
	other := cfg.Geometry
	other.ColsPerRow /= 2 // a different row size moves every address
	ts := cfg.traces([]pcm.Geometry{cfg.Geometry, cfg.Geometry, cfg.Geometry, other})
	generate := func(g pcm.Geometry) []trace.Record {
		recs, err := workload.Generate(cfg.Profiles[0], g, cfg.Seed, cfg.Requests)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	first, err := ts.records(0, cfg.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, generate(cfg.Geometry)) {
		t.Fatal("shared trace differs from a fresh generation")
	}
	recs, err := ts.records(0, other)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(recs, generate(other)) {
		t.Error("another geometry did not get its own trace")
	}

	got := make([][]trace.Record, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, err := ts.records(0, cfg.Geometry)
			if err != nil {
				t.Error(err)
			}
			got[i] = recs
		}()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) == 0 || &got[i][0] != &first[0] {
			t.Fatalf("simulation %d got its own copy of the trace", i+2)
		}
	}
	if n := len(ts.live); n != 0 {
		t.Errorf("%d traces still held after their last use", n)
	}
}

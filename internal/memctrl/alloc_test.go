package memctrl

import (
	"testing"

	"womcpcm/internal/pcm"
	"womcpcm/internal/trace"
)

// TestRunAllocsPerEvent gates the event loop's allocations. They are
// deterministic, so the gate is exact rather than statistical: events live
// in a typed heap and requests are recycled, leaving only construction and
// the amortized growth of queues, row maps and the free list — well under
// 0.01 allocations per event over a 20k-record run.
func TestRunAllocsPerEvent(t *testing.T) {
	g := pcm.Geometry{Ranks: 2, BanksPerRank: 4, RowsPerBank: 64, ColsPerRow: 16, BitsPerCol: 8, Devices: 8}
	recs := benchRecords(g, 20000)
	base := Config{Geometry: g, Timing: pcm.DefaultTiming()}
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"baseline", func(*Config) {}},
		{"wom", func(c *Config) { c.WOM = DefaultWOM() }},
		{"refresh", func(c *Config) { c.WOM, c.Refresh = DefaultWOM(), DefaultRefresh() }},
		{"wcpcm", func(c *Config) { c.Cache = DefaultCache() }},
		{"rd-prio+cancellation", func(c *Config) {
			c.Sched = &SchedConfig{ReadPriority: true, WriteCancellation: true}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			var events uint64
			allocs := testing.AllocsPerRun(3, func() {
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				run, err := c.Run(trace.NewSliceSource(recs))
				if err != nil {
					t.Fatal(err)
				}
				events = run.Events
			})
			perEvent := allocs / float64(events)
			t.Logf("%.0f allocs over %d events = %.4f per event", allocs, events, perEvent)
			if perEvent > 0.01 {
				t.Errorf("%.4f allocs per event, want <= 0.01", perEvent)
			}
		})
	}
}

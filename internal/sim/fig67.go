package sim

import (
	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
	"womcpcm/internal/workload"
)

// Fig6BankCounts are the four organizations the paper sweeps.
var Fig6BankCounts = []int{4, 8, 16, 32}

// Fig6Row is one benchmark's WOM-cache hit rate per banks/rank setting.
type Fig6Row struct {
	Benchmark string
	Suite     workload.Suite
	HitRate   []float64 // parallel to the result's BanksPerRank
}

// Fig6Result regenerates Fig. 6: hit rate falls as banks/rank (and with it
// the number of bank tags competing for each cache row) grows.
type Fig6Result struct {
	BanksPerRank []int
	Rows         []Fig6Row
	Mean         []float64
}

// Fig7Row is one benchmark's WCPCM write latency per banks/rank setting,
// normalized to the 4-banks/rank organization.
type Fig7Row struct {
	Benchmark string
	Suite     workload.Suite
	NormWrite []float64
}

// Fig7Result regenerates Fig. 7: write latency falls as banks/rank grows
// (more parallelism for victim write-backs and main-memory traffic).
type Fig7Result struct {
	BanksPerRank []int
	Rows         []Fig7Row
	Mean         []float64
}

// bankSweep runs WCPCM across the Fig6BankCounts organizations and returns
// runs[profile][bankIdx].
func bankSweep(cfg ExpConfig) ([][]*stats.Run, error) {
	cfg = cfg.normalize()
	cfgs := make([]memctrl.Config, len(Fig6BankCounts))
	for i, banks := range Fig6BankCounts {
		g := cfg.Geometry
		g.BanksPerRank = banks
		var err error
		if cfgs[i], err = cfg.archConfig(core.WCPCM, g); err != nil {
			return nil, err
		}
	}
	return cfg.runGrid(cfgs)
}

// Fig6 measures the WOM-cache hit rate per organization.
func Fig6(cfg ExpConfig) (*Fig6Result, error) {
	cfg = cfg.normalize()
	res := &Fig6Result{
		BanksPerRank: append([]int(nil), Fig6BankCounts...),
		Rows:         make([]Fig6Row, len(cfg.Profiles)),
		Mean:         make([]float64, len(Fig6BankCounts)),
	}
	for p, prof := range cfg.Profiles {
		res.Rows[p] = Fig6Row{
			Benchmark: prof.Name,
			Suite:     prof.Suite,
			HitRate:   make([]float64, len(Fig6BankCounts)),
		}
	}
	runs, err := bankSweep(cfg)
	if err != nil {
		return nil, err
	}
	for p, r := range runs {
		for b, run := range r {
			res.Rows[p].HitRate[b] = run.CacheHitRate()
		}
	}
	for b := range Fig6BankCounts {
		for p := range res.Rows {
			res.Mean[b] += res.Rows[p].HitRate[b] / float64(len(res.Rows))
		}
	}
	return res, nil
}

// Fig7 measures WCPCM write latency per organization, normalized to the
// 4-banks/rank configuration.
func Fig7(cfg ExpConfig) (*Fig7Result, error) {
	cfg = cfg.normalize()
	runs, err := bankSweep(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{
		BanksPerRank: append([]int(nil), Fig6BankCounts...),
		Rows:         make([]Fig7Row, len(cfg.Profiles)),
		Mean:         make([]float64, len(Fig6BankCounts)),
	}
	for p, prof := range cfg.Profiles {
		row := Fig7Row{Benchmark: prof.Name, Suite: prof.Suite, NormWrite: make([]float64, len(Fig6BankCounts))}
		for b, run := range runs[p] {
			if base := runs[p][0].WriteLatency.Mean(); base > 0 {
				row.NormWrite[b] = run.WriteLatency.Mean() / base
			}
			res.Mean[b] += row.NormWrite[b] / float64(len(cfg.Profiles))
		}
		res.Rows[p] = row
	}
	return res, nil
}

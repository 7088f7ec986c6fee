package sim

import (
	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
)

// RthSweepResult measures the PCM-refresh threshold r_th (§3.2): low
// thresholds refresh aggressively, higher thresholds wait for enough
// at-limit banks to batch the burst-mode refresh.
type RthSweepResult struct {
	Thresholds []float64
	// NormWrite is the across-benchmark mean normalized write latency of
	// PCM-refresh at each threshold (versus conventional PCM).
	NormWrite []float64
	// Refreshes and Aborts are totals across benchmarks.
	Refreshes []uint64
	Aborts    []uint64
}

// RthSweep runs PCM-refresh at each threshold.
func RthSweep(cfg ExpConfig, thresholds []float64) (*RthSweepResult, error) {
	cfg = cfg.normalize()
	res := &RthSweepResult{
		Thresholds: append([]float64(nil), thresholds...),
		NormWrite:  make([]float64, len(thresholds)),
		Refreshes:  make([]uint64, len(thresholds)),
		Aborts:     make([]uint64, len(thresholds)),
	}
	// Config 0 is the baseline each threshold is normalized to.
	cfgs, err := cfg.archConfigs(core.Baseline)
	if err != nil {
		return nil, err
	}
	for _, th := range thresholds {
		cfgs = append(cfgs, memctrl.Config{
			Geometry: cfg.Geometry,
			Timing:   cfg.Timing,
			WOM:      memctrl.DefaultWOM(),
			Refresh:  &memctrl.RefreshConfig{ThresholdPct: th, TableSize: 5},
		})
	}
	runs, err := cfg.runGrid(cfgs)
	if err != nil {
		return nil, err
	}
	for t := range thresholds {
		for _, r := range runs {
			res.NormWrite[t] += r[t+1].WriteLatency.Mean() / r[0].WriteLatency.Mean() / float64(len(cfg.Profiles))
			res.Refreshes[t] += r[t+1].Refreshes
			res.Aborts[t] += r[t+1].RefreshAborts
		}
	}
	return res, nil
}

// OrgAblationResult compares the §3.1 memory organizations.
type OrgAblationResult struct {
	// WideWrite/HiddenWrite (and reads) are across-benchmark mean
	// normalized latencies versus conventional PCM.
	WideWrite, HiddenWrite float64
	WideRead, HiddenRead   float64
}

// OrgAblation runs WOM-code PCM in both organizations.
func OrgAblation(cfg ExpConfig) (*OrgAblationResult, error) {
	cfg = cfg.normalize()
	res := &OrgAblationResult{}
	orgCfg := func(org memctrl.Organization) memctrl.Config {
		return memctrl.Config{
			Geometry: cfg.Geometry,
			Timing:   cfg.Timing,
			WOM:      &memctrl.WOMConfig{Rewrites: 2, Org: org},
		}
	}
	cfgs, err := cfg.archConfigs(core.Baseline)
	if err != nil {
		return nil, err
	}
	runs, err := cfg.runGrid(append(cfgs, orgCfg(memctrl.WideColumn), orgCfg(memctrl.HiddenPage)))
	if err != nil {
		return nil, err
	}
	n := float64(len(cfg.Profiles))
	for _, r := range runs {
		ww, wr := r[1].Normalized(r[0])
		hw, hr := r[2].Normalized(r[0])
		res.WideWrite += ww / n
		res.WideRead += wr / n
		res.HiddenWrite += hw / n
		res.HiddenRead += hr / n
	}
	return res, nil
}

// PausingAblationResult compares PCM-refresh with and without write
// pausing (§3.2 combines them; this quantifies the combination).
type PausingAblationResult struct {
	// WithWrite/WithoutWrite are mean normalized write latencies; Aborts
	// counts preemptions in the with-pausing runs.
	WithWrite, WithoutWrite float64
	WithRead, WithoutRead   float64
	Aborts                  uint64
}

// PausingAblation runs PCM-refresh with pausing on and off.
func PausingAblation(cfg ExpConfig) (*PausingAblationResult, error) {
	cfg = cfg.normalize()
	res := &PausingAblationResult{}
	refreshCfg := func(noPausing bool) memctrl.Config {
		return memctrl.Config{
			Geometry: cfg.Geometry,
			Timing:   cfg.Timing,
			WOM:      memctrl.DefaultWOM(),
			Refresh:  &memctrl.RefreshConfig{ThresholdPct: 10, TableSize: 5, NoPausing: noPausing},
		}
	}
	cfgs, err := cfg.archConfigs(core.Baseline)
	if err != nil {
		return nil, err
	}
	runs, err := cfg.runGrid(append(cfgs, refreshCfg(false), refreshCfg(true)))
	if err != nil {
		return nil, err
	}
	n := float64(len(cfg.Profiles))
	for _, r := range runs {
		ww, wr := r[1].Normalized(r[0])
		ow, or := r[2].Normalized(r[0])
		res.WithWrite += ww / n
		res.WithRead += wr / n
		res.WithoutWrite += ow / n
		res.WithoutRead += or / n
		res.Aborts += r[1].RefreshAborts
	}
	return res, nil
}

// CodeAblationResult sweeps the rewrite budget k (§3.2: higher k lifts the
// (k−1+S)/(kS) bound at higher memory overhead).
type CodeAblationResult struct {
	Rewrites []int
	// NormWrite is the mean normalized write latency of WOM-code PCM (no
	// refresh) at each k; Bound is the corresponding analytic limit.
	NormWrite []float64
	Bound     []float64
}

// CodeAblation runs WOM-code PCM at each rewrite budget.
func CodeAblation(cfg ExpConfig, rewrites []int) (*CodeAblationResult, error) {
	cfg = cfg.normalize()
	model := struct{ s float64 }{float64(cfg.Timing.Set) / float64(cfg.Timing.Reset)}
	res := &CodeAblationResult{
		Rewrites:  append([]int(nil), rewrites...),
		NormWrite: make([]float64, len(rewrites)),
		Bound:     make([]float64, len(rewrites)),
	}
	for i, k := range rewrites {
		res.Bound[i] = (float64(k) - 1 + model.s) / (float64(k) * model.s)
	}
	// Config 0 is the baseline each budget is normalized to.
	cfgs, err := cfg.archConfigs(core.Baseline)
	if err != nil {
		return nil, err
	}
	for _, k := range rewrites {
		cfgs = append(cfgs, memctrl.Config{
			Geometry: cfg.Geometry,
			Timing:   cfg.Timing,
			WOM:      &memctrl.WOMConfig{Rewrites: k},
		})
	}
	runs, err := cfg.runGrid(cfgs)
	if err != nil {
		return nil, err
	}
	for k := range rewrites {
		for _, r := range runs {
			res.NormWrite[k] += r[k+1].WriteLatency.Mean() / r[0].WriteLatency.Mean() / float64(len(cfg.Profiles))
		}
	}
	return res, nil
}

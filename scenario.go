package tracep

import (
	"fmt"

	"tracep/internal/bench"
)

// Scenario is one family of synthetic workloads: a named, calibrated
// GenConfig shape whose per-seed instances populate a statistical sweep's
// benchmark axis. Where the fixed SPEC95 analogues are single points, a
// scenario is a distribution of programs — the same control-flow character
// stamped out under different seeds — which is what gives a multi-seed
// sweep's confidence intervals their meaning: the replicates vary in
// predictor state and generated structure, never in workload family.
type Scenario struct {
	// Name identifies the family (e.g. "ptr-chase"); instances are named
	// "<family>-<seed>".
	Name string
	// Description summarises the control-flow property the family stresses.
	Description string

	gen func(seed int64) GenConfig
}

// GenConfig returns the family's generator configuration for one seed.
func (sc Scenario) GenConfig(seed int64) GenConfig { return sc.gen(seed) }

// Benchmark returns the family's workload instance for one seed, named
// "<family>-<seed>" so grid rows read as scenario coordinates;
// BenchmarkByName resolves that name back to the same instance.
func (sc Scenario) Benchmark(seed int64) Benchmark {
	bm := Generated(sc.gen(seed))
	bm.Name = fmt.Sprintf("%s-%d", sc.Name, seed)
	return bm
}

// Scenarios returns the calibrated workload families the statistical
// evaluation sweeps over, each stressing one axis of the paper's workload
// space:
//
//   - ptr-chase: serialised load-modify-store chains behind predictable
//     control flow — memory-bound, the D-cache/value-prediction stressor.
//   - dense-branch: many short, near-50/50 hammocks — the misprediction
//     and FGCI-recovery stressor (the compress end of the spectrum).
//   - long-dep: long fixed-trip inner loops with no hammocks — the
//     dependence-chain/ILP stressor with easy control flow.
//   - mixed: the moderate default blend (DefaultGenConfig), the vortex-like
//     middle of the spectrum.
//
// The list and each family's shape are fixed: cmd/experiments -scenarios,
// its -spec grid files, saved baselines, tracepd requests and job journals
// reference families and their instances by name.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "ptr-chase",
			Description: "pointer-chasing memory chains, easy control flow",
			gen: func(seed int64) GenConfig {
				cfg := bench.DefaultGenConfig(seed)
				cfg.Hammocks = 1
				cfg.HammockBias = 63 // rarely-taken: branches predict easily
				cfg.GuardedCalls = 0
				cfg.InnerLoops = 0
				cfg.MemOps = 6
				return cfg
			},
		},
		{
			Name:        "dense-branch",
			Description: "dense near-50/50 hammocks, misprediction-bound",
			gen: func(seed int64) GenConfig {
				cfg := bench.DefaultGenConfig(seed)
				cfg.Hammocks = 5
				cfg.HammockBias = 1 // 50/50: hardest to predict
				cfg.HammockArm = 3
				cfg.GuardedCalls = 2
				cfg.CallBias = 3
				cfg.InnerLoops = 0
				cfg.MemOps = 0
				return cfg
			},
		},
		{
			Name:        "long-dep",
			Description: "long fixed-trip dependence chains, ILP-bound",
			gen: func(seed int64) GenConfig {
				cfg := bench.DefaultGenConfig(seed)
				cfg.Hammocks = 0
				cfg.GuardedCalls = 0
				cfg.InnerLoops = 2
				cfg.InnerLoopVariance = 0 // fixed trip: predictable exits
				cfg.InnerLoopBase = 12
				cfg.MemOps = 1
				return cfg
			},
		},
		{
			Name:        "mixed",
			Description: "moderate blend of branches, loops and memory ops",
			gen:         bench.DefaultGenConfig,
		},
	}
}

// ScenarioByName returns the named scenario family from Scenarios.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("tracep: unknown scenario %q (want one of ptr-chase, dense-branch, long-dep, mixed)", name)
}

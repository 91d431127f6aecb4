package inject

import (
	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
)

// Experiment is one planned injection: the coordinates of the fault plus
// the precomputed injection cycle. The whole campaign is enumerated up
// front so execution can be sharded across workers while the schedule —
// and therefore the resulting dataset — stays bit-identical to a serial
// run: the injection cycle is fixed at enumeration time from an RNG
// derived only from Config.Seed and the experiment coordinates, never
// from worker count or completion order.
type Experiment struct {
	Kernel string
	Flop   int
	Kind   lockstep.FaultKind
	Seq    int // n-th injection for this (kernel, flop, kind) group
	Cycle  int // absolute injection cycle within the golden run
}

// Plan enumerates the campaign in canonical order: kernel (config order) ×
// flop (ascending, by stride) × kind (config order) × injection sequence
// number. Each (kernel, flop, kind) group draws its injection cycles from
// its own RNG seeded by mixing Config.Seed with the group coordinates, so
// any sub-plan is reproducible in isolation and the schedule is invariant
// under re-ordering, sharding, or filtering of the plan. The group RNG is
// planRNG, which draws exactly what math/rand seeded with the same value
// would; one generator and one interval scratch slice serve every group,
// so a group allocates nothing.
func (c Config) Plan() ([]Experiment, error) {
	if err := c.normalize(); err != nil {
		return nil, err
	}
	intervalLen := c.RunCycles / c.Intervals
	if intervalLen < 1 {
		intervalLen = 1
	}
	// c is normalized above, so Total cannot fail here.
	total, _ := c.Total()
	plan := make([]Experiment, 0, total)
	var rng planRNG
	intervals := make([]int, c.Intervals)
	for _, name := range c.Kernels {
		for flop := 0; flop < cpu.NumFlops(); flop += c.FlopStride {
			for _, kind := range c.Kinds {
				// A per-(kernel, flop, kind) RNG keeps each group's
				// injection points independent of campaign iteration order.
				// The interval permutation guarantees the group's
				// injections land in distinct intervals (until it wraps).
				rng.seed(mix(c.Seed, name, flop, int(kind)))
				rng.perm(intervals)
				for n := 0; n < c.InjectionsPerFlopKind; n++ {
					iv := intervals[n%c.Intervals]
					cycle := iv*intervalLen + rng.intn(intervalLen)
					if cycle >= c.RunCycles {
						cycle = c.RunCycles - 1
					}
					plan = append(plan, Experiment{
						Kernel: name,
						Flop:   flop,
						Kind:   kind,
						Seq:    n,
						Cycle:  cycle,
					})
				}
			}
		}
	}
	return plan, nil
}

// mix derives a stable 64-bit seed from the campaign seed and experiment
// coordinates (FNV-style).
func mix(seed int64, kernel string, flop, kind int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3
	for _, b := range []byte(kernel) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	h = (h ^ uint64(flop)) * 0x100000001B3
	h = (h ^ uint64(kind)) * 0x100000001B3
	h ^= h >> 29
	return int64(h)
}

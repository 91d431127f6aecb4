package inject

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
	"lockstep/internal/workload"
)

// planRNGSeeds covers the seed reduction's edge cases — zero (which
// math/rand replaces), negatives, multiples of 2^31−1 (which reduce to
// zero), the int64 extremes — plus ordinary and plan-derived seeds.
func planRNGSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, -5, 42, 89482311,
		int32max, -int32max, 2 * int32max, -3 * int32max, int32max - 1, int32max + 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		mix(1, "ttsprk", 0, 0), mix(-5, "matrix", 1023, 2),
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 32; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestPlanRNGMatchesMathRand is the differential oracle for planRNG: its
// raw draws and its intn must equal math/rand's for the same seed, draw
// for draw, past the 607-word state wrap; and Plan must equal a plan built
// the way it was before planRNG existed, on math/rand.
func TestPlanRNGMatchesMathRand(t *testing.T) {
	var g planRNG
	for _, seed := range planRNGSeeds() {
		ref := rand.New(rand.NewSource(seed))
		g.seed(seed)
		// Three passes over the 607-word state: the lazy words, then the
		// words written back by earlier draws.
		for i := 0; i < 3*rngLen; i++ {
			if want, got := ref.Uint64(), g.uint64(); got != want {
				t.Fatalf("seed %d: raw draw %d = %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}

	ns := []int{
		1,                       // always 0, still one draw
		2, 64, 1 << 20, 1 << 30, // powers of two: the mask branch
		3, 93, 1000, 6000, // ordinary Int31n
		1<<30 + 1, 1<<31 - 1, // rejection rate near 1/2
		1 << 31, 1<<40 + 7, 1<<62 + 1, math.MaxInt64, // the Int63n branch
	}
	for _, seed := range planRNGSeeds() {
		for _, n := range ns {
			ref := rand.New(rand.NewSource(seed))
			g.seed(seed)
			for i := 0; i < 1500; i++ {
				if want, got := ref.Intn(n), g.intn(n); got != want {
					t.Fatalf("seed %d: intn(%d) draw %d = %d, math/rand %d", seed, n, i, got, want)
				}
			}
		}
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"campaign-wide", Config{RunCycles: 6000, Intervals: 64, InjectionsPerFlopKind: 1, FlopStride: 1, Seed: 1}},
		{"interval wrap", Config{Kernels: []string{"puwmod", "ttsprk"}, RunCycles: 700, Intervals: 7,
			InjectionsPerFlopKind: 20, FlopStride: 97, Seed: 11}},
		{"1000 intervals", Config{Kernels: []string{"rspeed"}, RunCycles: 6000, Intervals: 1000,
			InjectionsPerFlopKind: 3, FlopStride: 61, Seed: -5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.cfg.Plan()
			if err != nil {
				t.Fatal(err)
			}
			want := mathRandPlan(t, tc.cfg)
			if len(got) != len(want) {
				t.Fatalf("plan has %d experiments, math/rand plan %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("experiment %d = %+v, math/rand plan %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// mathRandPlan enumerates cfg's plan with one math/rand source per
// (kernel, flop, kind) group, as Plan did before planRNG replaced it.
func mathRandPlan(t *testing.T, c Config) []Experiment {
	t.Helper()
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	intervalLen := max(c.RunCycles/c.Intervals, 1)
	var plan []Experiment
	for _, name := range c.Kernels {
		for flop := 0; flop < cpu.NumFlops(); flop += c.FlopStride {
			for _, kind := range c.Kinds {
				rng := rand.New(rand.NewSource(mix(c.Seed, name, flop, int(kind))))
				intervals := rng.Perm(c.Intervals)
				for n := 0; n < c.InjectionsPerFlopKind; n++ {
					cycle := intervals[n%c.Intervals]*intervalLen + rng.Intn(intervalLen)
					plan = append(plan, Experiment{Kernel: name, Flop: flop, Kind: kind, Seq: n,
						Cycle: min(cycle, c.RunCycles-1)})
				}
			}
		}
	}
	return plan
}

// FuzzPlanRNG: for any seed, bound and draw count, planRNG's intn stream
// and the raw draws that follow it equal math/rand's.
func FuzzPlanRNG(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(700))
	f.Add(int64(-5), int64(1<<30+1), uint16(1300))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint16(10))
	f.Add(int64(int32max), int64(93), uint16(2000))
	f.Fuzz(func(t *testing.T, seed, n int64, draws uint16) {
		if n <= 0 || int64(int(n)) != n {
			t.Skip()
		}
		ref := rand.New(rand.NewSource(seed))
		var g planRNG
		g.seed(seed)
		for i := 0; i < int(draws%2048); i++ {
			if want, got := ref.Intn(int(n)), g.intn(int(n)); got != want {
				t.Fatalf("seed %d: intn(%d) draw %d = %d, math/rand %d", seed, n, i, got, want)
			}
		}
		for i := 0; i < 8; i++ {
			if want, got := ref.Uint64(), g.uint64(); got != want {
				t.Fatalf("seed %d: raw draw %d after intn = %#x, math/rand %#x", seed, i, got, want)
			}
		}
	})
}

// campaignWideConfig is the every-flop, one-injection campaign over the
// whole suite, with its kernel and kind lists spelled out so normalizing
// it allocates nothing.
func campaignWideConfig() Config {
	cfg := Config{
		RunCycles: 6000, Intervals: 64, InjectionsPerFlopKind: 1, FlopStride: 1, Seed: 1,
		Kinds: []lockstep.FaultKind{lockstep.SoftFlip, lockstep.Stuck0, lockstep.Stuck1},
	}
	for _, k := range workload.Kernels() {
		cfg.Kernels = append(cfg.Kernels, k.Name)
	}
	return cfg
}

// TestPlanAllocs: Plan's allocation count does not grow with the number
// of (kernel, flop, kind) groups — the 85,995-group campaign-wide plan
// allocates no more than a one-group plan (the plan slice and the
// interval scratch), since every group reuses one generator. The
// collector is off while counting: a GC cycle the multi-megabyte plan
// slice triggers makes runtime allocations of its own, which are not
// Plan's.
func TestPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard runs without -race (make alloc)")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	wide := campaignWideConfig()
	one := Config{Kernels: []string{"ttsprk"}, RunCycles: 6000, Intervals: 64, FlopStride: cpu.NumFlops(),
		Kinds: []lockstep.FaultKind{lockstep.SoftFlip}, Seed: 1}
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := cfg.Plan(); err != nil {
				t.Fatal(err)
			}
		})
	}
	w, o := allocs(wide), allocs(one)
	if w > o {
		t.Fatalf("campaign-wide plan allocates %.0f objects, a one-flop plan %.0f: allocations grow with the group count", w, o)
	}
}

func BenchmarkPlan(b *testing.B) {
	cfg := campaignWideConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

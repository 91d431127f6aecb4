package inject

import (
	"errors"
	"math"
	"testing"
	"time"

	"lockstep/internal/cpu"
	"lockstep/internal/lockstep"
	"lockstep/internal/units"
	"lockstep/internal/workload"
)

func smallConfig() Config {
	return Config{
		Kernels:               []string{"ttsprk", "puwmod"},
		RunCycles:             6000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            16,
		Seed:                  7,
	}
}

func TestCampaignShape(t *testing.T) {
	cfg := smallConfig()
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total, err := cfg.Total()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != total {
		t.Fatalf("got %d records, config promised %d", ds.Len(), total)
	}
	man := ds.Manifested()
	if man.Len() == 0 {
		t.Fatal("campaign produced no manifested errors")
	}
	rate := float64(man.Len()) / float64(ds.Len())
	t.Logf("experiments=%d manifested=%d (%.1f%%) distinctDSRs=%d",
		ds.Len(), man.Len(), 100*rate, ds.DistinctDSRs())
	if rate <= 0.01 || rate >= 0.95 {
		t.Errorf("implausible overall manifestation rate %.2f", rate)
	}
	// Every record self-consistent.
	for _, r := range man.Records {
		if r.DSR == 0 {
			t.Fatal("manifested record with empty DSR")
		}
		if r.DetectCycle < r.InjectCycle {
			t.Fatal("detection before injection")
		}
		if r.Unit != cpu.FlopUnit(r.Flop) || r.Fine != cpu.FlopFine(r.Flop) {
			t.Fatal("unit tags inconsistent with flop registry")
		}
		if r.Fine.Coarse() != r.Unit {
			t.Fatal("fine unit does not map to coarse unit")
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Kernels = []string{"rspeed"}
	cfg.FlopStride = 64
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestHardRateExceedsSoftRate(t *testing.T) {
	ds, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var softInj, softMan, hardInj, hardMan int
	for _, r := range ds.Records {
		if r.Hard() {
			hardInj++
			if r.Detected {
				hardMan++
			}
		} else {
			softInj++
			if r.Detected {
				softMan++
			}
		}
	}
	soft := float64(softMan) / float64(softInj)
	hard := float64(hardMan) / float64(hardInj)
	t.Logf("manifestation rates: soft=%.1f%% hard=%.1f%%", 100*soft, 100*hard)
	if hard <= soft {
		t.Errorf("hard rate (%.2f) should exceed soft rate (%.2f), as in Table I", hard, soft)
	}
}

func TestAllUnitsReceiveInjections(t *testing.T) {
	cfg := smallConfig()
	cfg.Kernels = []string{"ttsprk"}
	cfg.FlopStride = 1
	cfg.Kinds = []lockstep.FaultKind{lockstep.Stuck1}
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := ds.ByUnit(true)
	for u := 0; u < units.NumUnits; u++ {
		if stats[u].Injected == 0 {
			t.Errorf("unit %v received no injections", units.Unit(u))
		}
	}
	fine := ds.ByFine(true)
	for f := 0; f < units.NumFine; f++ {
		if fine[f].Injected == 0 {
			t.Errorf("fine unit %v received no injections", units.Fine(f))
		}
	}
}

func TestUnknownKernelRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.Kernels = []string{"nosuch"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestFullFlopCoverage: a stride-1 campaign injects every flip-flop of the
// CPU — the paper's "faults must be injected to every flip-flop" claim.
func TestFullFlopCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	ds, err := Run(Config{
		Kernels:               []string{"puwmod"},
		RunCycles:             4000,
		Intervals:             64,
		InjectionsPerFlopKind: 1,
		FlopStride:            1,
		Kinds:                 []lockstep.FaultKind{lockstep.Stuck1},
		Seed:                  9,
	})
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, cpu.NumFlops())
	for _, r := range ds.Records {
		covered[r.Flop] = true
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("flop %d (%s) never injected", i, cpu.FlopName(i))
		}
	}
	if ds.Len() != cpu.NumFlops() {
		t.Fatalf("campaign size %d != flop count %d", ds.Len(), cpu.NumFlops())
	}
}

// TestAdmissionBounds: a config beyond the experiment, interval or
// run-cycle bound is refused with a ConfigError naming the field, by
// Total, Plan and Fingerprint alike, before anything is allocated; an
// experiment count whose product overflows int is refused, not wrapped;
// and the bounds admit the largest campaign the tools define (-scale
// full) and each bound itself.
func TestAdmissionBounds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"injections", Config{Kernels: []string{"ttsprk"}, InjectionsPerFlopKind: 4_000_000_000_000}, "InjectionsPerFlopKind"},
		{"overflowing product", Config{InjectionsPerFlopKind: math.MaxInt / 2}, "InjectionsPerFlopKind"},
		{"intervals", Config{Kernels: []string{"ttsprk"}, Intervals: 1_000_000_000_000}, "Intervals"},
		{"one interval too many", Config{Kernels: []string{"ttsprk"}, Intervals: MaxIntervals + 1}, "Intervals"},
		{"run cycles", Config{Kernels: []string{"ttsprk"}, RunCycles: 1_000_000_000_000}, "RunCycles"},
		{"one cycle too many", Config{Kernels: []string{"ttsprk"}, RunCycles: MaxRunCycles + 1}, "RunCycles"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(what string, err error) {
				var ce *ConfigError
				if !errors.As(err, &ce) || ce.Field != tc.field {
					t.Fatalf("%s: error %v, want a ConfigError naming %s", what, err, tc.field)
				}
			}
			n, err := tc.cfg.Total()
			check("Total", err)
			if n != 0 {
				t.Fatalf("Total = %d alongside an error", n)
			}
			_, err = tc.cfg.Plan()
			check("Plan", err)
			_, err = tc.cfg.Fingerprint()
			check("Fingerprint", err)
		})
	}

	// A stride beyond any flop count samples flop 0 alone.
	n, err := Config{Kernels: []string{"ttsprk"}, FlopStride: math.MaxInt}.Total()
	if err != nil || n != 3 {
		t.Fatalf("Total with the largest stride = %d, %v; want 3 (one flop x three kinds)", n, err)
	}
	// -scale full: the whole suite, every flop, two injections each.
	n, err = Config{RunCycles: 20000, Intervals: 64, InjectionsPerFlopKind: 2, FlopStride: 1}.Total()
	if want := len(workload.Kernels()) * cpu.NumFlops() * 3 * 2; err != nil || n != want {
		t.Fatalf("-scale full Total = %d, %v; want %d", n, err, want)
	}
	if _, err := (Config{Kernels: []string{"ttsprk"}, Intervals: MaxIntervals, FlopStride: cpu.NumFlops()}).Total(); err != nil {
		t.Fatalf("MaxIntervals refused: %v", err)
	}
	if _, err := (Config{Kernels: []string{"ttsprk"}, RunCycles: MaxRunCycles}).Total(); err != nil {
		t.Fatalf("MaxRunCycles refused: %v", err)
	}
}

// TestStatsPhasesSumToElapsed: RunStats splits its wall clock into the
// plan, golden, prune and simulate phases. The phases run one after
// another inside Elapsed, so their sum never exceeds it; the remainder is
// the bookkeeping between them (pending list, executor set-up, counters),
// which must stay within a tolerance of 10% of Elapsed plus 20 ms — loose
// enough for a loaded -race run, tight enough that a phase left out of
// the accounting (golden or simulate, tens of milliseconds here) fails.
// A span run reports its golden, prune and simulate phases the same way.
func TestStatsPhasesSumToElapsed(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 2
	_, st, err := RunStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := st.Phases
	if p.Plan <= 0 || p.Golden <= 0 || p.Prune <= 0 || p.Simulate <= 0 {
		t.Fatalf("a phase is unmeasured: %+v", p)
	}
	sum := p.Plan + p.Golden + p.Prune + p.Simulate
	tol := st.Elapsed/10 + 20*time.Millisecond
	if sum > st.Elapsed || st.Elapsed-sum > tol {
		t.Fatalf("phases sum to %v, Elapsed %v: want within %v below it (%s)", sum, st.Elapsed, tol, p)
	}

	r, err := NewSpanRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, ss, err := r.Run(Span{Lo: 0, Hi: r.Total() / 2})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	sp := ss.Phases
	if sp.Plan != 0 || sp.Golden <= 0 || sp.Simulate <= 0 {
		t.Fatalf("span phases %+v: want golden and simulate measured, plan zero", sp)
	}
	if sum := sp.Golden + sp.Prune + sp.Simulate; sum > wall {
		t.Fatalf("span phases sum to %v, more than the span's %v", sum, wall)
	}
}

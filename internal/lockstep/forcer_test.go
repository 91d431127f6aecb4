package lockstep

import (
	"testing"

	"lockstep/internal/cpu"
)

// TestForcerFaultModel pins the fault model every injection path shares:
// a soft flip inverts the flop at injection and recovers it to the golden
// value after exactly one more edge, then leaves it alone; a stuck-at
// forces the flop at injection and after every edge; a forcer that was
// never injected models a passed transient. Each edge first overwrites the
// flop with `stepped` (what the CPU computed on that clock edge) and then
// applies the forcer; no other flop may change.
func TestForcerFaultModel(t *testing.T) {
	type edge struct{ stepped, golden, want, passed bool }
	cases := []struct {
		name   string
		kind   FaultKind
		inject bool
		start  bool
		want   bool // flop after inject (or start, without inject)
		passed bool // passed() after inject
		edges  []edge
	}{
		{"soft 0", SoftFlip, true, false, true, false, []edge{
			{stepped: true, golden: false, want: false, passed: true},
			{stepped: true, golden: false, want: true, passed: true},
			{stepped: false, golden: true, want: false, passed: true},
		}},
		{"soft 1", SoftFlip, true, true, false, false, []edge{
			{stepped: false, golden: true, want: true, passed: true},
			{stepped: false, golden: true, want: false, passed: true},
		}},
		{"soft recovers to golden, not to start", SoftFlip, true, false, true, false, []edge{
			{stepped: false, golden: true, want: true, passed: true},
		}},
		{"stuck-at-0", Stuck0, true, true, false, false, []edge{
			{stepped: true, golden: true, want: false},
			{stepped: false, golden: true, want: false},
			{stepped: true, golden: false, want: false},
		}},
		{"stuck-at-1", Stuck1, true, false, true, false, []edge{
			{stepped: false, golden: false, want: true},
			{stepped: true, golden: false, want: true},
			{stepped: false, golden: true, want: true},
		}},
		{"soft never injected", SoftFlip, false, false, false, true, []edge{
			{stepped: true, golden: false, want: true, passed: true},
		}},
		{"stuck-at-1 never injected", Stuck1, false, false, false, false, []edge{
			{stepped: false, golden: false, want: true},
		}},
	}
	for _, flop := range []int{0, 10, cpu.NumFlops() / 2, cpu.NumFlops() - 1} {
		for _, tc := range cases {
			var st cpu.State
			for i := 0; i < cpu.NumFlops(); i += 3 {
				cpu.ForceBit(&st, i, true) // a non-trivial background
			}
			cpu.ForceBit(&st, flop, tc.start)
			background := st
			check := func(step string, want bool) {
				t.Helper()
				if got := cpu.GetBit(&st, flop); got != want {
					t.Fatalf("flop %d, %s, %s: bit %v, want %v", flop, tc.name, step, got, want)
				}
				other := st
				cpu.ForceBit(&other, flop, cpu.GetBit(&background, flop))
				if other != background {
					t.Fatalf("flop %d, %s, %s: a flop other than the faulted one changed", flop, tc.name, step)
				}
			}
			f := newForcer(Injection{Flop: flop, Kind: tc.kind, Cycle: 7})
			if tc.inject {
				f.inject(&st)
			}
			check("inject", tc.want)
			if f.passed() != tc.passed {
				t.Fatalf("flop %d, %s: passed() = %v after inject, want %v", flop, tc.name, f.passed(), tc.passed)
			}
			for i, e := range tc.edges {
				cpu.ForceBit(&st, flop, e.stepped)
				f.edge(&st, e.golden)
				step := "edge " + string(rune('1'+i))
				check(step, e.want)
				if f.passed() != e.passed {
					t.Fatalf("flop %d, %s, %s: passed() = %v, want %v", flop, tc.name, step, f.passed(), e.passed)
				}
			}
		}
	}
}

package cpu_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/workload"
)

// busWrite is one WriteMasked call as the CPU issued it.
type busWrite struct{ addr, data, mask uint32 }

// cowBus is a copy-on-write clone of a memory system: reads see the
// clone's own writes over the shared base image, and writes are logged
// and never reach the base. Two cowBuses over one base are independent
// clones of it.
type cowBus struct {
	base   *mem.System
	over   map[uint32]uint32
	writes []busWrite
}

func newCowBus(base *mem.System) *cowBus {
	return &cowBus{base: base, over: map[uint32]uint32{}}
}

func (b *cowBus) ReadWord(addr uint32) uint32 {
	if v, ok := b.over[addr&^3]; ok {
		return v
	}
	return b.base.ReadWord(addr)
}

func (b *cowBus) WriteMasked(addr, data, mask uint32) {
	b.writes = append(b.writes, busWrite{addr, data, mask})
	b.over[addr&^3] = b.ReadWord(addr)&^mask | data&mask
}

// hazardFlops are the flops the in-place Step reads after an earlier
// stage of the same cycle rewrote them (the MEM/WB latch, CycCnt) or
// whose old value it replaces with the new one (Halted), plus the PC the
// IF stage reads only when no redirect rewrote it.
var hazardFlops = func() []int {
	var out []int
	for ri, r := range cpu.Registry() {
		switch r.Name {
		case "MWValid", "MWWen", "MWRd", "MWVal", "CycCnt", "Halted", "PC":
			for b := 0; b < int(r.Width); b++ {
				out = append(out, cpu.FlopIndex(cpu.Flop{Reg: ri, Bit: uint8(b)}))
			}
		}
	}
	return out
}()

// perturb applies one to three random flips or forces, half of them on a
// hazard flop and the rest anywhere among NumFlops.
func perturb(rng *rand.Rand, s *cpu.State) {
	for n := 1 + rng.Intn(3); n > 0; n-- {
		f := rng.Intn(cpu.NumFlops())
		if rng.Intn(2) == 0 {
			f = hazardFlops[rng.Intn(len(hazardFlops))]
		}
		if rng.Intn(2) == 0 {
			cpu.FlipBit(s, f)
		} else {
			cpu.ForceBit(s, f, rng.Intn(2) == 0)
		}
	}
}

// stepBoth steps copies of s with Step and with the copy-based reference,
// each against its own clone of base, for the given number of cycles, and
// fails on the first cycle whose states or bus writes differ.
func stepBoth(t *testing.T, what string, s cpu.State, base *mem.System, cycles int) {
	t.Helper()
	got, want := s, s
	gotBus, wantBus := newCowBus(base), newCowBus(base)
	for c := 0; c < cycles; c++ {
		cpu.Step(&got, gotBus)
		cpu.ReferenceStep(&want, wantBus)
		if got != want {
			t.Fatalf("%s: cycle %d: Step state differs from the reference\n got %+v\nwant %+v", what, c, got, want)
		}
		if len(gotBus.writes) != len(wantBus.writes) {
			t.Fatalf("%s: cycle %d: Step issued %d bus writes, reference %d", what, c, len(gotBus.writes), len(wantBus.writes))
		}
		for i := range gotBus.writes {
			if gotBus.writes[i] != wantBus.writes[i] {
				t.Fatalf("%s: cycle %d: bus write %d is %+v, reference %+v", what, c, i, gotBus.writes[i], wantBus.writes[i])
			}
		}
	}
}

// TestStepMatchesReference is the differential gate on the in-place Step:
// from states sampled along every kernel's golden run, each perturbed by
// random flips and forces over all flops (weighted towards the flops the
// in-place evaluation must read before overwriting), Step and the
// copy-based referenceStep must reach equal States and issue equal bus
// writes, cycle after cycle.
func TestStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const cycles, every = 8000, 37
	for _, k := range workload.Kernels() {
		sys, entry, err := k.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(sys, entry)
		for cyc := 0; cyc < cycles; cyc++ {
			if cyc%every == 0 {
				stepBoth(t, k.Name+" golden", c.State, sys, 4)
				for trial := 0; trial < 8; trial++ {
					s := c.State
					perturb(rng, &s)
					stepBoth(t, k.Name+" perturbed", s, sys, 6)
				}
			}
			c.StepCycle()
		}
	}
}

// FuzzStep runs the Step/reference differential on arbitrary flop states
// executing against the ttsprk image.
func FuzzStep(f *testing.F) {
	sys, entry, err := workload.ByName("ttsprk").NewSystem()
	if err != nil {
		f.Fatal(err)
	}
	c := cpu.New(sys, entry)
	for cyc := 0; cyc < 400; cyc++ {
		if cyc%50 == 0 {
			var b []byte
			for _, r := range cpu.Registry() {
				b = binary.LittleEndian.AppendUint32(b, r.Get(&c.State))
			}
			f.Add(b)
		}
		c.StepCycle()
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		stepBoth(t, "fuzz", cpu.StateOf(data), sys, 4)
	})
}

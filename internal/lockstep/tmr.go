package lockstep

import (
	"lockstep/internal/cpu"
	"lockstep/internal/mem"
	"lockstep/internal/workload"
)

// TMR is a triple-core lockstep processor (the MMR configuration of
// Section II). CPU 0 drives the memory system; CPUs 1 and 2 are
// compare-only. The majority voter identifies the erring CPU when exactly
// one disagrees, which enables forward recovery: the architectural state of
// the majority is saved, all CPUs reset, and the state restored to bring
// the erring CPU back into lockstep — as in the TCLS Cortex-R5 system the
// paper cites.
type TMR struct {
	CPUs  [3]cpu.CPU
	Sys   *mem.System
	Cycle int

	// Fault forcing applied per CPU, mirroring the Inject harness. Arm
	// accumulates, so multi-fault scenarios (two CPUs erring at once —
	// the voter-ambiguity case TMR cannot recover from) are expressible.
	faults []armedFault
}

// armedFault is one scheduled fault forcing on one CPU of the triple.
type armedFault struct {
	inj Injection
	cpu int
	f   forcer
}

// NewTMR builds a triple lockstep system running the kernel.
func NewTMR(k *workload.Kernel) (*TMR, error) {
	sys, entry, err := k.NewSystem()
	if err != nil {
		return nil, err
	}
	t := &TMR{Sys: sys}
	t.CPUs[0] = cpu.CPU{Bus: sys}
	t.CPUs[0].State.Reset(entry)
	for i := 1; i < 3; i++ {
		t.CPUs[i] = cpu.CPU{Bus: mem.Monitor{Sys: sys}}
		t.CPUs[i].State.Reset(entry)
	}
	return t, nil
}

// Arm schedules fault forcing on one CPU (0..2) starting at inj.Cycle.
// Successive calls accumulate: arming faults on two CPUs models the
// double-fault case where the majority vote becomes ambiguous.
func (t *TMR) Arm(cpuIdx int, inj Injection) {
	t.faults = append(t.faults, armedFault{inj: inj, cpu: cpuIdx, f: newForcer(inj)})
}

// VoteResult is the majority voter's view of one cycle.
type VoteResult struct {
	Diverged bool
	DSR      uint64 // diverged-SC map of the erring CPU vs the majority
	Erring   int    // erring CPU index, or -1 if all three disagree
}

// Step advances all three CPUs one cycle, applies any armed fault, and
// votes on the output ports.
func (t *TMR) Step() VoteResult {
	t.Cycle++
	for i := range t.CPUs {
		t.CPUs[i].StepCycle()
	}
	for i := range t.faults {
		f := &t.faults[i]
		st := &t.CPUs[f.cpu].State
		switch {
		case t.Cycle == f.inj.Cycle:
			f.f.inject(st)
		case t.Cycle > f.inj.Cycle:
			// A passing transient recovers to the value a (presumed)
			// fault-free neighbour CPU holds.
			ref := &t.CPUs[(f.cpu+1)%3].State
			f.f.edge(st, cpu.GetBit(ref, f.inj.Flop))
		}
	}
	o0 := t.CPUs[0].State.Outputs()
	o1 := t.CPUs[1].State.Outputs()
	o2 := t.CPUs[2].State.Outputs()
	return vote3(&o0, &o1, &o2)
}

// ForwardRecover performs the MMR soft-error recovery of Section II: the
// architectural register state of a majority CPU is captured, every CPU is
// reset to it, and the erring CPU rejoins lockstep. Microarchitectural
// state is cleared by the reset, so the three CPUs restart bit-identical
// at the majority's retired PC.
//
// It returns the recovered architectural PC. The caller is responsible for
// only invoking this after the diagnostic flow has classified the error as
// soft (or after the voter identified the erring CPU).
func (t *TMR) ForwardRecover(majority int) uint32 {
	// Resume from the next fetch address of the majority CPU with its
	// register file; all transient pipeline state is discarded.
	arch := t.CPUs[majority].State
	recoverTMR(&arch)
	for i := range t.CPUs {
		t.CPUs[i].State = arch
	}
	t.faults = t.faults[:0]
	return arch.PC
}

package lockstep

import "lockstep/internal/cpu"

// forcer is the fault model of Sections III-B and IV-A, and the only
// implementation of it: every injection path — the replay core, the
// dual- and triple-CPU oracles, Golden.Trace, DMR and TMR — applies its
// fault through one.
//
// A soft fault inverts the flop for exactly one cycle ("its effect on the
// sequential element will disappear in the next cycle"): after the next
// clock edge the flop recovers to its fault-free value, while any
// downstream corruption it caused propagates naturally. A stuck-at fault
// forces the flop to a constant after every clock edge.
//
// The paths differ only in where the fault-free value of the flop comes
// from: the live main CPU, the replay path's one-cycle ghost step, or a
// TMR neighbour. Each passes that value to edge.
//
// inject and edge each make at most one out-of-line call, so both inline
// into the replay core's per-cycle loop.
type forcer struct {
	flop  int
	soft  bool // soft flip; otherwise stuck-at value
	value bool // the stuck-at value
	armed bool // a soft flip is in the flop and has not yet been restored
}

// newForcer returns the forcer for inj, not yet injected. Calling edge on
// it without inject models a fault whose transient has already passed:
// stuck-at faults are re-forced, soft faults left alone.
func newForcer(inj Injection) forcer {
	return forcer{flop: inj.Flop, soft: inj.Kind == SoftFlip, value: inj.Kind == Stuck1}
}

// inject applies the fault to st after the injection-cycle clock edge.
func (f *forcer) inject(st *cpu.State) {
	f.armed = f.soft
	setFlop(st, f.flop, f.soft, f.value)
}

// setFlop inverts the flop (flip) or forces it to v.
func setFlop(st *cpu.State, flop int, flip, v bool) {
	if flip {
		cpu.FlipBit(st, flop)
		return
	}
	cpu.ForceBit(st, flop, v)
}

// edge applies the fault to st after each later clock edge: a pending
// soft flip recovers to golden, the flop's fault-free value after the
// same edge; a stuck-at is re-forced. golden only matters on the first
// edge after a soft injection.
func (f *forcer) edge(st *cpu.State, golden bool) {
	if !f.passed() {
		f.force(st, golden)
	}
}

// force is edge's slow path, kept out of line so that edge inlines.
//
//go:noinline
func (f *forcer) force(st *cpu.State, golden bool) {
	v := f.value
	if f.armed {
		f.armed = false
		v = golden
	}
	cpu.ForceBit(st, f.flop, v)
}

// passed reports whether a soft fault's transient is over, which is when
// the faulty state may re-converge to the golden one.
func (f *forcer) passed() bool { return f.soft && !f.armed }

package cpu

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// referenceOutputs is the per-SC Outputs the packed Port replaced, kept
// as a test-only oracle for Port, Vec and DivergePort.
func referenceOutputs(s *State) OutVec {
	var o OutVec
	if s.IReqValid {
		putNibbles(&o, SCIAddr0, s.IReqAddr)
	}
	o[SCICtl] = b2u(s.IReqValid)
	if s.DRe || s.DWe {
		putNibbles(&o, SCDAddr0, s.DAddr)
		o[SCDCtlBE] = uint32(s.DBE & 0xF)
	}
	if s.DWe {
		putNibbles(&o, SCDWData0, s.DWData)
	}
	o[SCDCtlRW] = b2u(s.DRe) | b2u(s.DWe)<<1
	if s.ExtBusy || s.ExtRe || s.ExtWe {
		putBytes(&o, SCExtAddr0, s.ExtAddr)
		o[SCExtCtlBE] = uint32(s.ExtBE & 0xF)
		if s.ExtWe {
			putBytes(&o, SCExtWData0, s.ExtWData)
		}
	}
	o[SCExtCtlRW] = b2u(s.ExtRe) | b2u(s.ExtWe)<<1 | b2u(s.ExtBusy)<<2 |
		uint32(s.ExtCnt&3)<<3
	if s.MWValid {
		putBytes(&o, SCRetPC0, s.MWPC)
		putBytes(&o, SCRetInstr0, s.MWInstr)
		if s.MWWen {
			putNibbles(&o, SCWBData0, s.MWVal)
			o[SCWBReg] = uint32(s.MWRd & 0xF)
		}
	}
	o[SCWBCtl] = b2u(s.MWValid) | b2u(s.MWWen)<<1
	if s.ExcValid {
		putBytes(&o, SCEPC0, s.EPC)
		o[SCExcCause] = uint32(s.ExcCause & 7)
	}
	o[SCExcValid] = b2u(s.ExcValid)
	o[SCHalted] = b2u(s.Halted)
	return o
}

// checkPortPair checks Port against the reference on one pair of states:
// each Vec equals referenceOutputs, DivergePort equals Diverge of the
// reference vectors, and the packed ports are equal exactly when the
// vectors are.
func checkPortPair(t *testing.T, a, b *State) {
	t.Helper()
	pa, pb := a.Port(), b.Port()
	ra, rb := referenceOutputs(a), referenceOutputs(b)
	if pa.Vec() != ra || pb.Vec() != rb {
		t.Fatalf("Port().Vec() differs from referenceOutputs\n got %v\nwant %v", pa.Vec(), ra)
	}
	if got, want := DivergePort(&pa, &pb), Diverge(&ra, &rb); got != want {
		t.Fatalf("DivergePort = %#x, Diverge of the reference vectors = %#x", got, want)
	}
	if (pa == pb) != (ra == rb) {
		t.Fatalf("packed equality %v, vector equality %v", pa == pb, ra == rb)
	}
}

// randomState sets every registered flop from rng. Each strobe is a
// single flop, so half the states qualify any given payload bus.
func randomState(rng *rand.Rand) State {
	var s State
	for _, r := range Registry() {
		r.Set(&s, rng.Uint32())
	}
	return s
}

// TestPortMatchesOutputs: on random flop states, and on pairs a few flop
// flips apart (so most pairs differ in a handful of SCs, with equal pairs
// in between), the packed port agrees with the reference per-SC vector.
func TestPortMatchesOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 20000; i++ {
		a := randomState(rng)
		b := a
		switch i % 3 {
		case 0:
			b = randomState(rng)
		case 1:
			for n := rng.Intn(4); n > 0; n-- {
				FlipBit(&b, rng.Intn(NumFlops()))
			}
		}
		checkPortPair(t, &a, &b)
	}
}

// FuzzPort checks the Port oracle on two flop states built from the
// input bytes, four per register.
func FuzzPort(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{0xff})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := stateOf(da), stateOf(db)
		checkPortPair(t, &a, &b)
	})
}

// stateOf fills every registered flop from data, four bytes per
// register (missing bytes read as zero).
func stateOf(data []byte) State {
	var s State
	for i, r := range Registry() {
		var w [4]byte
		if 4*i < len(data) {
			copy(w[:], data[4*i:])
		}
		r.Set(&s, binary.LittleEndian.Uint32(w[:]))
	}
	return s
}

// StateOf exports stateOf to the external test package.
var StateOf = stateOf

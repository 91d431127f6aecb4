package cpu

import (
	"lockstep/internal/isa"
	"lockstep/internal/mem"
)

// referenceStep is the copy-based Step the in-place one replaced, kept as
// a test-only oracle: it builds the next state in a separate value n while
// every stage reads the untouched current state s, so it has no
// read-after-write hazards by construction. TestStepMatchesReference
// requires Step to reach the same State and issue the same bus writes.
//
// Only the helpers that read s while writing n are copied (ref prefix);
// the rest (execSimple, raise, latchLSU, startDivide, finishDivide,
// freeFQSlot, extractLoad) read or write a single state and are shared.
func referenceStep(s *State, bus mem.Bus) {
	n := *s // next state; explicit assignments below override held values
	n.CycCnt = s.CycCnt + 1

	// ---------------- WB stage ----------------
	if s.MWValid {
		n.RetCnt = s.RetCnt + 1
		if s.MWWen && s.MWRd != 0 {
			n.Regs[s.MWRd&0xF] = s.MWVal
		}
	}

	// ---------------- MEM stage ----------------
	// Interface registers idle unless an access happens this cycle.
	n.DRe, n.DWe = false, false

	memDone := false
	memExc := uint8(CauseNone)
	var mwVal uint32
	var mwWen bool
	if s.XMValid {
		op := isa.Op(s.XMOp)
		switch {
		case isa.IsLoad(op) || isa.IsStore(op):
			memDone, memExc, mwVal, mwWen = refStepMemAccess(s, &n, bus, op)
		default:
			memDone = true
			mwVal = s.XMAlu
			mwWen = isa.WritesReg(op)
		}
	} else {
		memDone = true // empty stage accepts a new instruction
	}

	// MEM/WB latch.
	if s.XMValid && memDone && memExc == CauseNone {
		n.MWValid = true
		n.MWRd = s.XMRd & 0xF
		n.MWVal = mwVal
		n.MWWen = mwWen
		n.MWPC = s.XMPC
		n.MWInstr = s.XMInstr
	} else {
		n.MWValid = false
	}
	if memExc != CauseNone {
		raise(&n, memExc, s.XMPC)
		n.LSURe, n.LSUWe = false, false
	}

	canPushXM := !s.XMValid || memDone

	// ---------------- EX stage ----------------
	exComplete := false
	redirect := false
	var redirectPC uint32
	var xmAlu, xmStore uint32
	var haltReq bool
	if s.DXValid {
		op := isa.Op(s.DXOp)
		a := refFwdOperand(s, s.DXRs1, s.DXRs1Val)
		b := refFwdOperand(s, s.DXRs2, s.DXRs2Val)
		// Refresh the operand capture latches every cycle the instruction
		// waits in EX, so values forwarded from transient XM/MW producers
		// are retained after the producers retire to the register file.
		n.DXRs1Val, n.DXRs2Val = a, b

		// A load sitting in MEM whose destination we need has no result
		// yet; wait for it to reach the MEM/WB latch.
		exBlocked := s.XMValid && isa.IsLoad(isa.Op(s.XMOp)) && s.XMRd != 0 &&
			(s.XMRd == s.DXRs1 && usesRs1(op) || s.XMRd == s.DXRs2 && usesRs2(op))

		switch op {
		case isa.OpMUL, isa.OpMULH:
			switch {
			case !s.MulBusy && exBlocked:
				// Wait for the operand-producing load before latching.
			case !s.MulBusy:
				n.MulBusy = true
				n.MulA, n.MulB = a, b
				n.MulHiSel = op == isa.OpMULH
			case canPushXM:
				p := int64(int32(s.MulA)) * int64(int32(s.MulB))
				if s.MulHiSel {
					xmAlu = uint32(uint64(p) >> 32)
				} else {
					xmAlu = uint32(p)
				}
				n.MulBusy = false
				exComplete = true
			}
		case isa.OpDIV, isa.OpREM:
			switch {
			case !s.DivBusy && exBlocked:
				// Wait for the operand-producing load before latching.
			case !s.DivBusy:
				startDivide(&n, op, a, b)
			case s.DivCnt > 0:
				refStepDivide(s, &n)
			case canPushXM:
				xmAlu = finishDivide(s)
				n.DivBusy = false
				exComplete = true
			}
		default:
			if canPushXM && !exBlocked {
				exComplete = true
				xmAlu, xmStore, redirect, redirectPC, haltReq = execSimple(s, op, a, b)
			}
		}

		if exComplete {
			n.XMValid = true
			n.XMOp = s.DXOp
			n.XMRd = s.DXRd & 0xF
			n.XMAlu = xmAlu
			n.XMStore = xmStore
			n.XMPC = s.DXPC
			n.XMInstr = s.DXInstr
			if isa.IsLoad(op) || isa.IsStore(op) {
				latchLSU(&n, op, xmAlu, xmStore)
			}
			if haltReq {
				n.Halted = true
			}
		}
	}
	if !exComplete && canPushXM {
		n.XMValid = false // bubble
	}

	if redirect {
		n.PC = redirectPC &^ 3
	}

	// ---------------- ID stage ----------------
	dxFree := !s.DXValid || exComplete
	issued := false
	illegal := false
	head := s.FQHead & 1
	headValid := s.FQValid[head]
	if dxFree {
		switch {
		case redirect || s.Halted || n.Halted:
			n.DXValid = false
		case headValid:
			in := isa.Decode(s.FQInstr[head])
			if in.Op == isa.OpInvalid {
				illegal = true
				raise(&n, CauseIllegal, s.FQPC[head])
				n.DXValid = false
			} else {
				issued = true
				n.DXValid = true
				n.DXOp = uint8(in.Op)
				n.DXRd = in.Rd
				n.DXRs1 = in.Rs1
				n.DXRs2 = in.Rs2
				n.DXImm = uint32(in.Imm)
				n.DXPC = s.FQPC[head]
				n.DXInstr = s.FQInstr[head]
				n.DXRs1Val = refIDRegRead(s, in.Rs1)
				n.DXRs2Val = refIDRegRead(s, in.Rs2)
			}
		default:
			n.DXValid = false
		}
	}

	// ---------------- IF stage (PFU + IMC) ----------------
	n.IReqValid = false
	if redirect || illegal {
		n.FQValid[0], n.FQValid[1] = false, false
		n.FQHead = 0
		*s = n
		return
	}
	if issued {
		n.FQValid[head] = false
		n.FQHead = (head ^ 1) & 1
	}
	if !s.Halted && !n.Halted {
		if slot, ok := freeFQSlot(&n); ok {
			pc := s.PC
			if pc&3 != 0 || pc >= mem.RAMBytes {
				raise(&n, CauseIFetch, pc)
			} else {
				w := bus.ReadWord(pc)
				n.FQInstr[slot] = w
				n.FQPC[slot] = pc
				n.FQValid[slot] = true
				n.IReqAddr = pc
				n.IReqValid = true
				n.IFData = w
				n.PC = pc + 4
			}
		}
	}
	*s = n
}

func refIDRegRead(s *State, r uint8) uint32 {
	r &= 0xF
	if r == 0 {
		return 0
	}
	if s.MWValid && s.MWWen && s.MWRd == r {
		return s.MWVal
	}
	return s.Regs[r]
}

func refFwdOperand(s *State, r uint8, captured uint32) uint32 {
	r &= 0xF
	if r == 0 {
		return 0
	}
	if s.XMValid && s.XMRd == r && !isa.IsLoad(isa.Op(s.XMOp)) &&
		isa.WritesReg(isa.Op(s.XMOp)) {
		return s.XMAlu
	}
	if s.MWValid && s.MWWen && s.MWRd == r {
		return s.MWVal
	}
	return captured
}

func refStepMemAccess(s *State, n *State, bus mem.Bus, op isa.Op) (done bool, exc uint8, mwVal uint32, mwWen bool) {
	addr := s.LSUAddr
	size := isa.MemBytes(op)
	if size > 1 && addr&(size-1) != 0 {
		return true, CauseMisaligned, 0, false
	}
	// System-register window: internal SCU access, no external port
	// activity, never MPU-checked.
	if addr >= MMIOBase && addr < MMIOEnd {
		if s.LSUWe {
			n.MPUWrite(addr&^3, s.LSUData, mem.ByteLaneMask(uint32(s.LSUBE)))
		} else {
			mwVal = extractLoad(op, s.MPURead(addr&^3), addr)
			mwWen = true
		}
		n.LSURe, n.LSUWe = false, false
		return true, CauseNone, mwVal, mwWen
	}
	if !s.MPUAllows(addr, s.LSUWe) {
		return true, CauseMPU, 0, false
	}
	if addr >= mem.ExtBase {
		return refStepExtAccess(s, n, bus, op)
	}
	if addr >= mem.RAMBytes {
		return true, CauseBusFault, 0, false
	}
	// Tightly-coupled RAM through the DMC: synchronous single-cycle.
	n.DAddr = addr
	n.DBE = s.LSUBE
	if s.LSUWe {
		n.DWe = true
		n.DWData = s.LSUData
		bus.WriteMasked(addr&^3, s.LSUData, mem.ByteLaneMask(uint32(s.LSUBE)))
	} else {
		n.DRe = true
		w := bus.ReadWord(addr &^ 3)
		n.DRData = w
		mwVal = extractLoad(op, w, addr)
		mwWen = true
	}
	n.LSURe, n.LSUWe = false, false
	return true, CauseNone, mwVal, mwWen
}

func refStepExtAccess(s *State, n *State, bus mem.Bus, op isa.Op) (done bool, exc uint8, mwVal uint32, mwWen bool) {
	switch {
	case !s.ExtBusy:
		n.ExtBusy = true
		n.ExtCnt = ExtLatency - 1
		n.ExtAddr = s.LSUAddr
		n.ExtWData = s.LSUData
		n.ExtBE = s.LSUBE
		n.ExtRe = s.LSURe
		n.ExtWe = s.LSUWe
		return false, CauseNone, 0, false
	case s.ExtCnt > 0:
		n.ExtCnt = s.ExtCnt - 1
		return false, CauseNone, 0, false
	default:
		if s.ExtWe {
			bus.WriteMasked(s.ExtAddr&^3, s.ExtWData, mem.ByteLaneMask(uint32(s.ExtBE)))
		} else {
			w := bus.ReadWord(s.ExtAddr &^ 3)
			n.ExtRData = w
			mwVal = extractLoad(op, w, s.ExtAddr)
			mwWen = true
		}
		n.ExtBusy = false
		n.ExtRe, n.ExtWe = false, false
		n.LSURe, n.LSUWe = false, false
		return true, CauseNone, mwVal, mwWen
	}
}

func refStepDivide(s *State, n *State) {
	rem, quot := s.DivRem, s.DivQuot
	div := s.DivDivisor
	for i := 0; i < 2; i++ {
		rem = rem<<1 | quot>>31
		quot <<= 1
		if rem >= div {
			rem -= div
			quot |= 1
		}
	}
	n.DivRem = rem
	n.DivQuot = quot
	n.DivCnt = s.DivCnt - 1
}

// ReferenceStep exports the oracle to the external test package, whose
// tests run the workload kernels (and package workload imports cpu).
var ReferenceStep = referenceStep

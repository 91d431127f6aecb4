package cpu

import (
	"lockstep/internal/isa"
	"lockstep/internal/mem"
)

// Step advances the CPU by one clock cycle: it evaluates the combinational
// logic of all five stages against the current flop state and bus, then
// latches the next state. Stages are evaluated back-to-front (WB, MEM, EX,
// ID, IF) so that stall and flush signals flow naturally.
//
// The next state is written into *s in place, stage by stage, so a stage
// reads a flop only while no earlier stage of the same cycle can have
// rewritten it. Two values are read after their rewrite and are saved
// first: the retiring MEM/WB latch (rewritten by MEM, read by EX
// forwarding and the ID write-through bypass) and CycCnt (read by RDCYC in
// EX; it is incremented last). Halted is never cleared, so testing the
// updated flag covers the old one; the IF stage reads PC only when no
// redirect rewrote it.
//
// Memory timing: tightly-coupled RAM is synchronous with single-cycle
// access; external (peripheral) accesses occupy the memory stage for
// ExtLatency cycles via the BIU state machine.
func Step(s *State, bus mem.Bus) {
	wb := retiring{valid: s.MWValid, wen: s.MWWen, rd: s.MWRd, val: s.MWVal}

	// ---------------- WB stage ----------------
	if wb.valid {
		s.RetCnt++
		if wb.wen && wb.rd != 0 {
			s.Regs[wb.rd&0xF] = wb.val
		}
	}

	// ---------------- MEM stage ----------------
	// Interface registers idle unless an access happens this cycle.
	s.DRe, s.DWe = false, false

	memDone := false
	memExc := uint8(CauseNone)
	var mwVal uint32
	var mwWen bool
	if s.XMValid {
		op := isa.Op(s.XMOp)
		switch {
		case isa.IsLoad(op) || isa.IsStore(op):
			memDone, memExc, mwVal, mwWen = stepMemAccess(s, bus, op)
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
		s.MWValid = true
		s.MWRd = s.XMRd & 0xF
		s.MWVal = mwVal
		s.MWWen = mwWen
		s.MWPC = s.XMPC
		s.MWInstr = s.XMInstr
	} else {
		s.MWValid = false
	}
	if memExc != CauseNone {
		raise(s, memExc, s.XMPC)
		s.LSURe, s.LSUWe = false, false
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
		a := fwdOperand(s, &wb, s.DXRs1, s.DXRs1Val)
		b := fwdOperand(s, &wb, s.DXRs2, s.DXRs2Val)
		// Refresh the operand capture latches every cycle the instruction
		// waits in EX, so values forwarded from transient XM/MW producers
		// are retained after the producers retire to the register file.
		s.DXRs1Val, s.DXRs2Val = a, b

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
				s.MulBusy = true
				s.MulA, s.MulB = a, b
				s.MulHiSel = op == isa.OpMULH
			case canPushXM:
				p := int64(int32(s.MulA)) * int64(int32(s.MulB))
				if s.MulHiSel {
					xmAlu = uint32(uint64(p) >> 32)
				} else {
					xmAlu = uint32(p)
				}
				s.MulBusy = false
				exComplete = true
			}
		case isa.OpDIV, isa.OpREM:
			switch {
			case !s.DivBusy && exBlocked:
				// Wait for the operand-producing load before latching.
			case !s.DivBusy:
				startDivide(s, op, a, b)
			case s.DivCnt > 0:
				stepDivide(s)
			case canPushXM:
				xmAlu = finishDivide(s)
				s.DivBusy = false
				exComplete = true
			}
		default:
			if canPushXM && !exBlocked {
				exComplete = true
				xmAlu, xmStore, redirect, redirectPC, haltReq = execSimple(s, op, a, b)
			}
		}

		if exComplete {
			s.XMValid = true
			s.XMOp = s.DXOp
			s.XMRd = s.DXRd & 0xF
			s.XMAlu = xmAlu
			s.XMStore = xmStore
			s.XMPC = s.DXPC
			s.XMInstr = s.DXInstr
			if isa.IsLoad(op) || isa.IsStore(op) {
				latchLSU(s, op, xmAlu, xmStore)
			}
			if haltReq {
				s.Halted = true
			}
		}
	}
	if !exComplete && canPushXM {
		s.XMValid = false // bubble
	}

	if redirect {
		s.PC = redirectPC &^ 3
	}

	// ---------------- ID stage ----------------
	dxFree := !s.DXValid || exComplete
	issued := false
	illegal := false
	head := s.FQHead & 1
	if dxFree {
		switch {
		case redirect || s.Halted:
			s.DXValid = false
		case s.FQValid[head]:
			in := isa.Decode(s.FQInstr[head])
			if in.Op == isa.OpInvalid {
				illegal = true
				raise(s, CauseIllegal, s.FQPC[head])
				s.DXValid = false
			} else {
				issued = true
				s.DXValid = true
				s.DXOp = uint8(in.Op)
				s.DXRd = in.Rd
				s.DXRs1 = in.Rs1
				s.DXRs2 = in.Rs2
				s.DXImm = uint32(in.Imm)
				s.DXPC = s.FQPC[head]
				s.DXInstr = s.FQInstr[head]
				s.DXRs1Val = idRegRead(s, &wb, in.Rs1)
				s.DXRs2Val = idRegRead(s, &wb, in.Rs2)
			}
		default:
			s.DXValid = false
		}
	}

	// ---------------- IF stage (PFU + IMC) ----------------
	s.IReqValid = false
	if redirect || illegal {
		s.FQValid[0], s.FQValid[1] = false, false
		s.FQHead = 0
	} else {
		if issued {
			s.FQValid[head] = false
			s.FQHead = (head ^ 1) & 1
		}
		if slot, ok := freeFQSlot(s); ok && !s.Halted {
			pc := s.PC
			if pc&3 != 0 || pc >= mem.RAMBytes {
				raise(s, CauseIFetch, pc)
			} else {
				w := bus.ReadWord(pc)
				s.FQInstr[slot] = w
				s.FQPC[slot] = pc
				s.FQValid[slot] = true
				s.IReqAddr = pc
				s.IReqValid = true
				s.IFData = w
				s.PC = pc + 4
			}
		}
	}
	s.CycCnt++
}

// retiring is the MEM/WB latch as it stood at the start of the cycle: the
// instruction writing back this cycle, which EX forwards from and ID
// bypasses after MEM has latched its successor.
type retiring struct {
	valid, wen bool
	rd         uint8
	val        uint32
}

// raise records the first exception (sticky) and halts the CPU.
func raise(s *State, cause uint8, pc uint32) {
	if !s.ExcValid {
		s.ExcValid = true
		s.ExcCause = cause & 7
		s.EPC = pc
	}
	s.Halted = true
}

// idRegRead reads a register in decode with a write-through bypass from the
// retiring instruction, so a value written back this cycle is visible to an
// instruction reading it in the same cycle.
func idRegRead(s *State, wb *retiring, r uint8) uint32 {
	r &= 0xF
	if r == 0 {
		return 0
	}
	if wb.valid && wb.wen && wb.rd == r {
		return wb.val
	}
	return s.Regs[r]
}

// fwdOperand resolves an EX operand with forwarding from the MEM-stage ALU
// result and the WB-stage value, falling back to the operand capture latch.
func fwdOperand(s *State, wb *retiring, r uint8, captured uint32) uint32 {
	r &= 0xF
	if r == 0 {
		return 0
	}
	if s.XMValid && s.XMRd == r && !isa.IsLoad(isa.Op(s.XMOp)) &&
		isa.WritesReg(isa.Op(s.XMOp)) {
		return s.XMAlu
	}
	if wb.valid && wb.wen && wb.rd == r {
		return wb.val
	}
	return captured
}

func usesRs1(op isa.Op) bool {
	switch isa.FormatOf(op) {
	case isa.FormatR, isa.FormatB:
		return true
	case isa.FormatI:
		return op != isa.OpRDCYC
	}
	return false
}

func usesRs2(op isa.Op) bool {
	switch isa.FormatOf(op) {
	case isa.FormatR, isa.FormatB:
		return true
	}
	return false
}

// execSimple executes all single-cycle operations, returning the ALU/link
// result, store data, and any PC redirect.
func execSimple(s *State, op isa.Op, a, b uint32) (alu, store uint32, redirect bool, target uint32, halt bool) {
	imm := s.DXImm
	switch op {
	case isa.OpADD:
		alu = a + b
	case isa.OpSUB:
		alu = a - b
	case isa.OpAND:
		alu = a & b
	case isa.OpOR:
		alu = a | b
	case isa.OpXOR:
		alu = a ^ b
	case isa.OpSLL:
		alu = a << (b & 31)
	case isa.OpSRL:
		alu = a >> (b & 31)
	case isa.OpSRA:
		alu = uint32(int32(a) >> (b & 31))
	case isa.OpSLT:
		if int32(a) < int32(b) {
			alu = 1
		}
	case isa.OpSLTU:
		if a < b {
			alu = 1
		}
	case isa.OpADDI:
		alu = a + imm
	case isa.OpANDI:
		alu = a & imm
	case isa.OpORI:
		alu = a | imm
	case isa.OpXORI:
		alu = a ^ imm
	case isa.OpSLTI:
		if int32(a) < int32(imm) {
			alu = 1
		}
	case isa.OpSLLI:
		alu = a << (imm & 31)
	case isa.OpSRLI:
		alu = a >> (imm & 31)
	case isa.OpSRAI:
		alu = uint32(int32(a) >> (imm & 31))
	case isa.OpLUI:
		alu = imm
	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		alu = a + imm
	case isa.OpSW, isa.OpSH, isa.OpSB:
		alu = a + imm
		store = b
	case isa.OpBEQ:
		redirect = a == b
	case isa.OpBNE:
		redirect = a != b
	case isa.OpBLT:
		redirect = int32(a) < int32(b)
	case isa.OpBGE:
		redirect = int32(a) >= int32(b)
	case isa.OpBLTU:
		redirect = a < b
	case isa.OpBGEU:
		redirect = a >= b
	case isa.OpJAL:
		alu = s.DXPC + 4
		redirect = true
	case isa.OpJALR:
		alu = s.DXPC + 4
		redirect = true
		target = a + imm
	case isa.OpRDCYC:
		alu = s.CycCnt
	case isa.OpHALT:
		halt = true
	}
	if redirect && op != isa.OpJALR {
		target = s.DXPC + 4 + imm*4
	}
	return alu, store, redirect, target, halt
}

// latchLSU captures an in-flight data access into the load/store unit:
// the effective address, lane-aligned store data and byte enables.
func latchLSU(s *State, op isa.Op, addr, store uint32) {
	size := isa.MemBytes(op)
	off := addr & 3
	s.LSUAddr = addr
	s.LSUBE = uint8(((1 << size) - 1) << off & 0xF)
	s.LSUData = store << (8 * off)
	s.LSURe = isa.IsLoad(op)
	s.LSUWe = isa.IsStore(op)
}

// stepMemAccess performs the MEM-stage work of a load or store using the
// LSU registers latched at EX completion. TCM accesses complete in one
// cycle through the DMC; external accesses engage the BIU state machine.
func stepMemAccess(s *State, bus mem.Bus, op isa.Op) (done bool, exc uint8, mwVal uint32, mwWen bool) {
	addr := s.LSUAddr
	size := isa.MemBytes(op)
	if size > 1 && addr&(size-1) != 0 {
		return true, CauseMisaligned, 0, false
	}
	// System-register window: internal SCU access, no external port
	// activity, never MPU-checked.
	if addr >= MMIOBase && addr < MMIOEnd {
		if s.LSUWe {
			s.MPUWrite(addr&^3, s.LSUData, mem.ByteLaneMask(uint32(s.LSUBE)))
		} else {
			mwVal = extractLoad(op, s.MPURead(addr&^3), addr)
			mwWen = true
		}
		s.LSURe, s.LSUWe = false, false
		return true, CauseNone, mwVal, mwWen
	}
	if !s.MPUAllows(addr, s.LSUWe) {
		return true, CauseMPU, 0, false
	}
	if addr >= mem.ExtBase {
		return stepExtAccess(s, bus, op)
	}
	if addr >= mem.RAMBytes {
		return true, CauseBusFault, 0, false
	}
	// Tightly-coupled RAM through the DMC: synchronous single-cycle.
	s.DAddr = addr
	s.DBE = s.LSUBE
	if s.LSUWe {
		s.DWe = true
		s.DWData = s.LSUData
		bus.WriteMasked(addr&^3, s.LSUData, mem.ByteLaneMask(uint32(s.LSUBE)))
	} else {
		s.DRe = true
		w := bus.ReadWord(addr &^ 3)
		s.DRData = w
		mwVal = extractLoad(op, w, addr)
		mwWen = true
	}
	s.LSURe, s.LSUWe = false, false
	return true, CauseNone, mwVal, mwWen
}

// stepExtAccess drives the BIU for a peripheral access: a setup cycle, wait
// states, then the bus transaction on the final cycle.
func stepExtAccess(s *State, bus mem.Bus, op isa.Op) (done bool, exc uint8, mwVal uint32, mwWen bool) {
	switch {
	case !s.ExtBusy:
		s.ExtBusy = true
		s.ExtCnt = ExtLatency - 1
		s.ExtAddr = s.LSUAddr
		s.ExtWData = s.LSUData
		s.ExtBE = s.LSUBE
		s.ExtRe = s.LSURe
		s.ExtWe = s.LSUWe
		return false, CauseNone, 0, false
	case s.ExtCnt > 0:
		s.ExtCnt = s.ExtCnt - 1
		return false, CauseNone, 0, false
	default:
		if s.ExtWe {
			bus.WriteMasked(s.ExtAddr&^3, s.ExtWData, mem.ByteLaneMask(uint32(s.ExtBE)))
		} else {
			w := bus.ReadWord(s.ExtAddr &^ 3)
			s.ExtRData = w
			mwVal = extractLoad(op, w, s.ExtAddr)
			mwWen = true
		}
		s.ExtBusy = false
		s.ExtRe, s.ExtWe = false, false
		s.LSURe, s.LSUWe = false, false
		return true, CauseNone, mwVal, mwWen
	}
}

// extractLoad pulls the addressed lanes out of a memory word and extends
// them per the load opcode.
func extractLoad(op isa.Op, word, addr uint32) uint32 {
	v := word >> (8 * (addr & 3))
	switch op {
	case isa.OpLB:
		return uint32(int32(int8(v)))
	case isa.OpLBU:
		return v & 0xFF
	case isa.OpLH:
		return uint32(int32(int16(v)))
	case isa.OpLHU:
		return v & 0xFFFF
	default:
		return v
	}
}

// startDivide initialises the restoring divider. Divide-by-zero short
// circuits with the RISC-V convention (quotient all-ones, remainder equal
// to the dividend).
func startDivide(s *State, op isa.Op, a, b uint32) {
	s.DivBusy = true
	s.DivIsRem = op == isa.OpREM
	if b == 0 {
		s.DivQuot = 0xFFFF_FFFF
		s.DivRem = a
		s.DivNegQ = false
		s.DivNegR = false
		s.DivCnt = 0
		return
	}
	negA := int32(a) < 0
	negB := int32(b) < 0
	s.DivNegQ = negA != negB
	s.DivNegR = negA
	s.DivQuot = absU32(a)
	s.DivDivisor = absU32(b)
	s.DivRem = 0
	s.DivCnt = 16
}

// stepDivide advances the restoring division by two bits.
func stepDivide(s *State) {
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
	s.DivRem = rem
	s.DivQuot = quot
	s.DivCnt = s.DivCnt - 1
}

// finishDivide applies the sign fixups and selects quotient or remainder.
func finishDivide(s *State) uint32 {
	q, r := s.DivQuot, s.DivRem
	if s.DivNegQ {
		q = -q
	}
	if s.DivNegR {
		r = -r
	}
	if s.DivIsRem {
		return r
	}
	return q
}

func absU32(v uint32) uint32 {
	if int32(v) < 0 {
		return -v
	}
	return v
}

// freeFQSlot returns the fetch-queue slot a new instruction should fill,
// honouring the head pointer so entries stay in order.
func freeFQSlot(s *State) (int, bool) {
	head := int(s.FQHead & 1)
	if !s.FQValid[head] && !s.FQValid[head^1] {
		return head, true
	}
	if s.FQValid[head] && !s.FQValid[head^1] {
		return head ^ 1, true
	}
	return 0, false
}

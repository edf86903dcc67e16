package cpu

import (
	"fmt"

	"sdmmon/internal/isa"
)

// ExceptionKind enumerates the architectural exceptions the core raises.
type ExceptionKind int

const (
	ExcNone ExceptionKind = iota
	// ExcReservedInstr: the fetched word does not decode to an implemented
	// instruction.
	ExcReservedInstr
	// ExcUnaligned: a load/store address violated its natural alignment.
	ExcUnaligned
	// ExcBusError: an access fell outside RAM and any MMIO window.
	ExcBusError
	// ExcOverflow: signed overflow on add/sub/addi.
	ExcOverflow
	// ExcMonitorAlarm: the attached hardware monitor rejected the retired
	// instruction stream and asserted the core's reset line.
	ExcMonitorAlarm
	// ExcCycleLimit: the Run cycle budget was exhausted (runaway/looping
	// code — the watchdog case).
	ExcCycleLimit
	// ExcSyscall: a syscall was executed with no handler installed.
	ExcSyscall
)

func (k ExceptionKind) String() string {
	switch k {
	case ExcNone:
		return "none"
	case ExcReservedInstr:
		return "reserved-instruction"
	case ExcUnaligned:
		return "unaligned-access"
	case ExcBusError:
		return "bus-error"
	case ExcOverflow:
		return "arithmetic-overflow"
	case ExcMonitorAlarm:
		return "monitor-alarm"
	case ExcCycleLimit:
		return "cycle-limit"
	case ExcSyscall:
		return "syscall-unhandled"
	}
	return fmt.Sprintf("exception(%d)", int(k))
}

// Exception describes an abnormal termination of execution.
type Exception struct {
	Kind ExceptionKind
	PC   uint32 // pc of the faulting instruction
	Addr uint32 // faulting data address, if applicable
}

func (e *Exception) Error() string {
	return fmt.Sprintf("cpu: %s at pc=0x%x addr=0x%x", e.Kind, e.PC, e.Addr)
}

// TraceFunc observes every retired instruction. Returning false asserts the
// monitor's reset line: the core stops with ExcMonitorAlarm. This is the
// attachment point for the hardware monitor.
type TraceFunc func(pc uint32, w isa.Word) bool

// SyscallFunc services a syscall instruction. Register state may be
// inspected and modified through the CPU. Returning false halts the core.
type SyscallFunc func(c *CPU) bool

// CPU is one PLASMA-like core.
type CPU struct {
	// State is written on every retired instruction. New allocates it; a
	// multicore owner may move it onto cache lines of its own (copy the
	// value, repoint the pointer) so cores running in parallel never
	// share a line.
	*State
	Mem *Memory

	// Trace, if non-nil, observes every retired instruction (the monitor
	// port).
	Trace TraceFunc
	// Syscall, if non-nil, services syscall instructions.
	Syscall SyscallFunc
}

// State is a core's architectural state and counters.
type State struct {
	Regs   [32]uint32
	PC     uint32
	Hi, Lo uint32

	// Cycles counts consumed clock cycles using the cost table below.
	Cycles uint64
	// Retired counts retired instructions.
	Retired uint64

	halted bool
}

// Cycle costs approximating the multi-cycle PLASMA units. Every instruction
// costs one cycle; these add extra cycles.
const (
	extraCyclesMult = 3  // 4-cycle multiplier
	extraCyclesDiv  = 35 // 36-cycle iterative divider
	extraCyclesLoad = 1  // synchronous block-RAM read port
)

// New creates a core attached to mem, with PC at entry.
func New(mem *Memory, entry uint32) *CPU {
	return &CPU{State: &State{PC: entry}, Mem: mem}
}

// Reset performs the hardware reset the monitor triggers on an alarm: all
// registers cleared, PC forced to entry. Memory contents are untouched (the
// binary stays loaded; recovery reloads only the processing stack state).
func (c *CPU) Reset(entry uint32) {
	c.Regs = [32]uint32{}
	c.Hi, c.Lo = 0, 0
	c.PC = entry
	c.halted = false
}

// Halted reports whether the core executed a break (normal completion).
func (c *CPU) Halted() bool { return c.halted }

// Run executes instructions until break, an exception, or the cycle budget
// is exhausted. It returns the number of cycles consumed by this call.
func (c *CPU) Run(maxCycles uint64) (uint64, *Exception) {
	s := c.State
	start := s.Cycles
	for !s.halted {
		if s.Cycles-start >= maxCycles {
			return s.Cycles - start, &Exception{Kind: ExcCycleLimit, PC: s.PC}
		}
		if exc := c.Step(); exc != nil {
			return s.Cycles - start, exc
		}
	}
	return s.Cycles - start, nil
}

// Step executes one instruction. A nil return means the instruction retired
// normally (or the core halted via break).
func (c *CPU) Step() *Exception {
	// Every register and counter access goes through one load of the
	// State pointer.
	s := c.State
	pc := s.PC
	raw, ok := c.Mem.Load32(pc)
	if !ok {
		return &Exception{Kind: ExcBusError, PC: pc, Addr: pc}
	}
	w := isa.Word(raw)
	if !isa.Valid(w) {
		// The word still "retires" from the fetch stage in hardware, so
		// the monitor sees it before the trap; report it first.
		if c.Trace != nil && !c.Trace(pc, w) {
			return &Exception{Kind: ExcMonitorAlarm, PC: pc}
		}
		return &Exception{Kind: ExcReservedInstr, PC: pc}
	}

	// Report to the monitor port. The monitor observes the instruction as
	// it retires; an alarm resets the core before architectural state can
	// propagate further, which we model by checking before execution of
	// the *next* effect-bearing step is irrelevant — the attack is caught
	// at this instruction boundary either way.
	if c.Trace != nil && !c.Trace(pc, w) {
		return &Exception{Kind: ExcMonitorAlarm, PC: pc}
	}

	s.Cycles++
	s.Retired++
	next := pc + 4

	switch w.Op() {
	case isa.OpSpecial:
		exc := c.execSpecial(s, pc, w, &next)
		if exc != nil {
			return exc
		}
	case isa.OpRegImm:
		rs := int32(s.Regs[w.Rs()])
		taken := false
		switch w.Rt() {
		case isa.RtBLTZ:
			taken = rs < 0
		case isa.RtBGEZ:
			taken = rs >= 0
		case isa.RtBLTZAL:
			taken = rs < 0
			s.Regs[isa.RegRA] = pc + 4
		case isa.RtBGEZAL:
			taken = rs >= 0
			s.Regs[isa.RegRA] = pc + 4
		}
		if taken {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpJ:
		next = isa.JumpTarget(pc, w)
	case isa.OpJAL:
		s.Regs[isa.RegRA] = pc + 4
		next = isa.JumpTarget(pc, w)
	case isa.OpBEQ:
		if s.Regs[w.Rs()] == s.Regs[w.Rt()] {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpBNE:
		if s.Regs[w.Rs()] != s.Regs[w.Rt()] {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpBLEZ:
		if int32(s.Regs[w.Rs()]) <= 0 {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpBGTZ:
		if int32(s.Regs[w.Rs()]) > 0 {
			next = isa.BranchTarget(pc, w)
		}
	case isa.OpADDI:
		a, b := int32(s.Regs[w.Rs()]), w.SImm()
		sum := a + b
		if (a > 0 && b > 0 && sum < 0) || (a < 0 && b < 0 && sum >= 0) {
			return &Exception{Kind: ExcOverflow, PC: pc}
		}
		s.setReg(w.Rt(), uint32(sum))
	case isa.OpADDIU:
		s.setReg(w.Rt(), s.Regs[w.Rs()]+uint32(w.SImm()))
	case isa.OpSLTI:
		if int32(s.Regs[w.Rs()]) < w.SImm() {
			s.setReg(w.Rt(), 1)
		} else {
			s.setReg(w.Rt(), 0)
		}
	case isa.OpSLTIU:
		if s.Regs[w.Rs()] < uint32(w.SImm()) {
			s.setReg(w.Rt(), 1)
		} else {
			s.setReg(w.Rt(), 0)
		}
	case isa.OpANDI:
		s.setReg(w.Rt(), s.Regs[w.Rs()]&uint32(w.Imm()))
	case isa.OpORI:
		s.setReg(w.Rt(), s.Regs[w.Rs()]|uint32(w.Imm()))
	case isa.OpXORI:
		s.setReg(w.Rt(), s.Regs[w.Rs()]^uint32(w.Imm()))
	case isa.OpLUI:
		s.setReg(w.Rt(), uint32(w.Imm())<<16)
	default:
		if exc := c.execMem(s, pc, w); exc != nil {
			return exc
		}
	}

	s.PC = next
	return nil
}

func (s *State) setReg(r, v uint32) {
	if r != isa.RegZero {
		s.Regs[r] = v
	}
}

func (c *CPU) execSpecial(s *State, pc uint32, w isa.Word, next *uint32) *Exception {
	rs, rt := s.Regs[w.Rs()], s.Regs[w.Rt()]
	switch w.Fn() {
	case isa.FnSLL:
		s.setReg(w.Rd(), rt<<w.Shamt())
	case isa.FnSRL:
		s.setReg(w.Rd(), rt>>w.Shamt())
	case isa.FnSRA:
		s.setReg(w.Rd(), uint32(int32(rt)>>w.Shamt()))
	case isa.FnSLLV:
		s.setReg(w.Rd(), rt<<(rs&31))
	case isa.FnSRLV:
		s.setReg(w.Rd(), rt>>(rs&31))
	case isa.FnSRAV:
		s.setReg(w.Rd(), uint32(int32(rt)>>(rs&31)))
	case isa.FnJR:
		*next = rs
	case isa.FnJALR:
		s.setReg(w.Rd(), pc+4)
		*next = rs
	case isa.FnSYSCALL:
		if c.Syscall == nil {
			return &Exception{Kind: ExcSyscall, PC: pc}
		}
		if !c.Syscall(c) {
			s.halted = true
		}
	case isa.FnBREAK:
		s.halted = true
	case isa.FnMFHI:
		s.setReg(w.Rd(), s.Hi)
	case isa.FnMTHI:
		s.Hi = rs
	case isa.FnMFLO:
		s.setReg(w.Rd(), s.Lo)
	case isa.FnMTLO:
		s.Lo = rs
	case isa.FnMULT:
		s.Cycles += extraCyclesMult
		p := int64(int32(rs)) * int64(int32(rt))
		s.Hi, s.Lo = uint32(uint64(p)>>32), uint32(uint64(p))
	case isa.FnMULTU:
		s.Cycles += extraCyclesMult
		p := uint64(rs) * uint64(rt)
		s.Hi, s.Lo = uint32(p>>32), uint32(p)
	case isa.FnDIV:
		s.Cycles += extraCyclesDiv
		switch {
		case rt == 0:
			// MIPS leaves HI/LO unpredictable on divide-by-zero; keep them.
		case int32(rs) == -1<<31 && int32(rt) == -1:
			// Overflow corner: Go would panic on INT_MIN / -1. MIPS
			// defines no trap; the hardware quotient wraps to INT_MIN.
			s.Lo = rs
			s.Hi = 0
		default:
			s.Lo = uint32(int32(rs) / int32(rt))
			s.Hi = uint32(int32(rs) % int32(rt))
		}
	case isa.FnDIVU:
		s.Cycles += extraCyclesDiv
		if rt != 0 {
			s.Lo = rs / rt
			s.Hi = rs % rt
		}
	case isa.FnADD:
		a, b := int32(rs), int32(rt)
		sum := a + b
		if (a > 0 && b > 0 && sum < 0) || (a < 0 && b < 0 && sum >= 0) {
			return &Exception{Kind: ExcOverflow, PC: pc}
		}
		s.setReg(w.Rd(), uint32(sum))
	case isa.FnADDU:
		s.setReg(w.Rd(), rs+rt)
	case isa.FnSUB:
		a, b := int32(rs), int32(rt)
		diff := a - b
		if (a >= 0 && b < 0 && diff < 0) || (a < 0 && b >= 0 && diff >= 0) {
			return &Exception{Kind: ExcOverflow, PC: pc}
		}
		s.setReg(w.Rd(), uint32(diff))
	case isa.FnSUBU:
		s.setReg(w.Rd(), rs-rt)
	case isa.FnAND:
		s.setReg(w.Rd(), rs&rt)
	case isa.FnOR:
		s.setReg(w.Rd(), rs|rt)
	case isa.FnXOR:
		s.setReg(w.Rd(), rs^rt)
	case isa.FnNOR:
		s.setReg(w.Rd(), ^(rs | rt))
	case isa.FnSLT:
		if int32(rs) < int32(rt) {
			s.setReg(w.Rd(), 1)
		} else {
			s.setReg(w.Rd(), 0)
		}
	case isa.FnSLTU:
		if rs < rt {
			s.setReg(w.Rd(), 1)
		} else {
			s.setReg(w.Rd(), 0)
		}
	}
	return nil
}

func (c *CPU) execMem(s *State, pc uint32, w isa.Word) *Exception {
	addr := s.Regs[w.Rs()] + uint32(w.SImm())
	switch w.Op() {
	case isa.OpLB:
		s.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load8(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		s.setReg(w.Rt(), uint32(int32(int8(v))))
	case isa.OpLBU:
		s.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load8(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		s.setReg(w.Rt(), v)
	case isa.OpLH:
		if addr&1 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		s.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load16(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		s.setReg(w.Rt(), uint32(int32(int16(v))))
	case isa.OpLHU:
		if addr&1 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		s.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load16(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		s.setReg(w.Rt(), v)
	case isa.OpLW:
		if addr&3 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		s.Cycles += extraCyclesLoad
		v, ok := c.Mem.Load32(addr)
		if !ok {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
		s.setReg(w.Rt(), v)
	case isa.OpSB:
		if !c.Mem.Store8(addr, s.Regs[w.Rt()]) {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
	case isa.OpSH:
		if addr&1 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		if !c.Mem.Store16(addr, s.Regs[w.Rt()]) {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
	case isa.OpSW:
		if addr&3 != 0 {
			return &Exception{Kind: ExcUnaligned, PC: pc, Addr: addr}
		}
		if !c.Mem.Store32(addr, s.Regs[w.Rt()]) {
			return &Exception{Kind: ExcBusError, PC: pc, Addr: addr}
		}
	}
	return nil
}

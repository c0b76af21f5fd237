package synth

import (
	"math/rand"

	"repro/internal/isa"
)

// maxLoopIters is a defensive bound on consecutive taken iterations of a
// single backward branch. Generated loops always terminate (counters and
// trip registers are reserved and cannot be clobbered), but the guard keeps
// any future generator bug from hanging a simulation.
const maxLoopIters = 1 << 20

// Stream is an infinite, deterministic uop stream: the functional execution
// of one synthetic program. It implements the trace source consumed by the
// timing simulator and the trace analyses. The program is shared with every
// other stream of the same Params; the value rng, the memory overlay and
// the loop guards are the stream's own.
type Stream struct {
	params Params
	prog   *program
	rng    *rand.Rand
	mem    *memory

	regs [isa.NumRegs]uint32
	fp   [8]uint32

	idx        int
	seq        uint64
	takenRun   []uint32 // consecutive taken count per static backward branch
	staticUops int
}

// NewStream validates p, takes p's program (building it only if no live
// stream already has it) and prepares the executor.
func NewStream(p Params) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newStream(p, sharedProgram(p)), nil
}

// newStream prepares an executor over prog, which was built from p.
func newStream(p Params, prog *program) *Stream {
	s := &Stream{
		params:   p,
		prog:     prog,
		rng:      rand.New(rand.NewSource(p.Seed)),
		takenRun: make([]uint32, len(prog.uops)),
	}
	s.mem = newMemory(prog, uint32(p.Seed)|1)
	for i := 0; i < numRegions; i++ {
		s.regs[regBase0+i] = s.mem.bases[i]
	}
	for _, r := range narrowPool {
		s.regs[r] = uint32(r) // small initial data values
	}
	for _, r := range widePool {
		s.regs[r] = 0x00010000 + uint32(r)
	}
	for i := range s.fp {
		s.fp[i] = 0x3F800000 + uint32(i)
	}
	s.staticUops = len(prog.uops)
	return s
}

// MustNewStream is NewStream for known-good parameters (tests, examples).
func MustNewStream(p Params) *Stream {
	s, err := NewStream(p)
	if err != nil {
		panic(err)
	}
	return s
}

// StaticUops returns the static program size in uops — the code footprint
// seen by the trace cache and the width predictor (aliasing pressure).
func (s *Stream) StaticUops() int { return s.staticUops }

// Params returns the generation parameters.
func (s *Stream) Params() Params { return s.params }

// drawConst materializes a roleConst value honouring the width persona and
// the width-locality parameter: with probability 1-WidthLocality the
// instance flips persona, which is precisely what creates width predictor
// mispredictions downstream.
func (s *Stream) drawConst(su *staticUop) uint32 {
	narrow := su.narrowPersona
	if s.rng.Float64() >= s.params.WidthLocality {
		narrow = !narrow
	}
	if narrow {
		v := uint32(s.rng.Intn(128))
		if s.rng.Intn(8) == 0 { // occasional small negative, sign-extended
			v = uint32(-int32(1 + s.rng.Intn(64)))
		}
		return v
	}
	return 0x00010000 | uint32(s.rng.Intn(1<<16))
}

func (s *Stream) drawTrip() uint32 {
	t := 1 + s.rng.Intn(2*s.params.InnerTrip)
	return uint32(t)
}

// Next fills u with the next executed uop. The stream is infinite; Next
// always succeeds. The caller owns u between calls.
func (s *Stream) Next(u *isa.Uop) {
	su := &s.prog.uops[s.idx]

	*u = isa.Uop{
		Seq:          s.seq,
		PC:           su.pc,
		Class:        su.class,
		Op:           su.op,
		NSrc:         su.nsrc,
		SrcReg:       su.srcReg,
		DstReg:       su.dstReg,
		HasImm:       su.hasImm,
		Imm:          su.imm,
		ImplicitWide: su.implicitWide,
	}
	s.seq++
	next := s.idx + 1

	switch su.class {
	case isa.ClassALU:
		s.execALU(su, u)
	case isa.ClassMul, isa.ClassDiv:
		a, b := s.regs[su.srcReg[0]], s.regs[su.srcReg[1]]
		u.SrcVal[0], u.SrcVal[1] = a, b
		var v uint32
		if su.class == isa.ClassMul {
			v = a * b
		} else if b != 0 {
			v = a / b
		}
		u.DstVal = v
		s.regs[su.dstReg] = v
	case isa.ClassFP:
		a, b := s.fp[su.srcReg[0]], s.fp[su.srcReg[1]]
		u.SrcVal[0], u.SrcVal[1] = a, b
		v := 0x3F000000 | (hash32(a^b^uint32(s.seq)) & 0xFFFF)
		u.DstVal = v
		s.fp[su.dstReg] = v
	case isa.ClassLoad:
		base, off := s.regs[su.srcReg[0]], s.regs[su.srcReg[1]]
		u.SrcVal[0], u.SrcVal[1] = base, off
		addr := base + off
		u.MemAddr = addr
		u.MemSize = su.memSize
		v := s.mem.load(addr, int(su.region), su.memSize)
		u.DstVal = v
		s.regs[su.dstReg] = v
	case isa.ClassStore:
		base, off, data := s.regs[su.srcReg[0]], s.regs[su.srcReg[1]], s.regs[su.srcReg[2]]
		u.SrcVal[0], u.SrcVal[1], u.SrcVal[2] = base, off, data
		addr := base + off
		u.MemAddr = addr
		u.MemSize = su.memSize
		s.mem.store(addr, data, su.memSize)
	case isa.ClassBranch:
		flags := s.regs[isa.RegFlags]
		u.SrcVal[0] = flags
		u.ReadsFlags = true
		u.FrontendResolvable = su.frontendRes
		taken := evalCond(su.cond, flags)
		if su.isBackward {
			if taken {
				s.takenRun[s.idx]++
				if s.takenRun[s.idx] >= maxLoopIters {
					taken = false
				}
			}
			if !taken {
				s.takenRun[s.idx] = 0
			}
		}
		u.Taken = taken
		u.Target = pcOf(int(su.takenTarget))
		if taken {
			next = int(su.takenTarget)
		}
	case isa.ClassJump:
		u.Taken = true
		u.Target = pcOf(int(su.takenTarget))
		u.FrontendResolvable = su.frontendRes
		next = int(su.takenTarget)
	}

	s.idx = next
}

func (s *Stream) execALU(su *staticUop, u *isa.Uop) {
	var v uint32
	switch su.role {
	case roleConst:
		v = s.drawConst(su)
		u.Imm = v
	case roleTripInit:
		v = s.drawTrip()
		u.Imm = v
	case roleCtrInit:
		v = 0
	case roleStride:
		old := s.regs[su.srcReg[0]]
		u.SrcVal[0] = old
		// add-and-wrap fused: progresses through the region working set.
		v = (old + su.imm) & s.prog.wrapMask(su.region)
	default:
		a := s.regs[su.srcReg[0]]
		u.SrcVal[0] = a
		b := uint32(0)
		switch {
		case su.nsrc >= 2:
			b = s.regs[su.srcReg[1]]
			u.SrcVal[1] = b
		case su.hasImm:
			b = su.imm
		}
		v = isa.Eval(su.op, a, b)
	}
	u.DstVal = v
	if su.dstReg != isa.RegNone && su.op.WritesDest() {
		s.regs[su.dstReg] = v
	}
	if writesFlags(su.class, su.op) {
		u.WritesFlags = true
		s.regs[isa.RegFlags] = v
	}
}

func evalCond(c cond, flags uint32) bool {
	switch c {
	case condNotZero:
		return flags != 0
	case condZero:
		return flags == 0
	default: // condSign
		return flags&0x80000000 != 0
	}
}

// wrapMask returns the offset mask for a region's working set.
func (p *program) wrapMask(region uint8) uint32 {
	return (1 << p.regionShift[region]) - 1
}

package synth

import (
	"math/rand"

	"repro/internal/isa"
)

// Register allocation convention of generated programs:
//
//	r0..r3   region base pointers (wide, fixed at stream start)
//	r4..r5   strided offset registers (wrap within the region working set)
//	r6..r9   data pool (ALU results, load destinations)
//	r10..r11 loop trip registers
//	r12..r14 loop counters
//	r15      scratch
const (
	regBase0   = 0
	regStride0 = 4
	regStride1 = 5
	regTrip0   = 10
	regTrip1   = 11
	regCtr0    = 12
	regCtr2    = 14
)

// Data-pool registers are split by width personality: real programs keep
// narrow byte/index data and wide pointer/word data in largely disjoint
// register cliques, so dependence chains are width-homogeneous. This is
// what lets the 8_8_8 scheme keep whole chains inside the helper cluster
// instead of paying a copy on every other edge.
var (
	narrowPool = []uint8{6, 7, 8}
	widePool   = []uint8{9, 15}
)

// aluOps are the operations of a plain two-source or reg+imm ALU uop.
var aluOps = []isa.ALUOp{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpInc, isa.OpNot}

// numRegions is the number of synthetic memory regions (byte array, word
// array, pointer array, stack-like).
const numRegions = 4

// codeBase is the PC of the first generated uop.
const codeBase = 0x1000

// role tags a static uop with the special value behaviour the executor
// must apply when an instance executes.
type role uint8

const (
	roleNone     role = iota
	roleConst         // mov immediate with a width persona
	roleTripInit      // mov rTrip, <drawn trip count>
	roleCtrInit       // mov rCtr, 0
	roleStride        // add rStride, stride ; result wrapped to the working set
)

// cond selects the branch condition evaluated over the flags value.
type cond uint8

const (
	condNotZero cond = iota // taken while the compared values differ (loop bottom)
	condZero
	condSign // taken when the flags value has the sign bit set
)

// staticUop is one instruction of the generated program. The narrow
// field types keep it at 32 bytes: the uops are the bulk of a program.
type staticUop struct {
	pc    uint32
	class isa.Class
	op    isa.ALUOp

	nsrc   uint8
	srcReg [isa.MaxSrcs]uint8
	dstReg uint8

	hasImm bool
	imm    uint32 // base immediate; roleConst/roleTripInit draw per instance

	role          role
	narrowPersona bool // for roleConst: narrow vs wide width persona

	region  uint8 // memory region index for loads/stores
	memSize uint8

	cond        cond
	takenTarget int32 // static index of the taken successor
	isBackward  bool  // loop-bottom backward branch
	frontendRes bool  // EIP+immediate branch resolvable in the frontend (§3.3)

	// implicitWide marks uops with an implicit wide context operand in
	// the IA-32 internal machine state (§3.2); they cannot satisfy the
	// all-narrow 8_8_8 condition.
	implicitWide bool
}

// program is a generated synthetic program: a CFG flattened into a static
// uop sequence where branches carry explicit taken targets and the final
// jump wraps back to index 0. Nothing writes a program after buildProgram
// returns, so all streams of one Params share it (see sharedProgram).
type program struct {
	params Params
	uops   []staticUop
	// regionShift[i] is log2 of region i's working-set size in bytes.
	regionShift [numRegions]uint
}

// pcOf returns the PC of static index i.
func pcOf(i int) uint32 { return codeBase + uint32(i)*4 }

// buildProgram generates the static program for p using its own
// deterministic generation stream (separate from the execution stream so
// program shape does not perturb value draws).
func buildProgram(p Params) *program {
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5E3779B97F4A7C15))
	// A program averages ~1.8 uops per Segments×BlockSize (loop overhead
	// and nesting). This capacity holds all but the most loop-heavy: 2 of
	// the 424 workload profiles regrow it once.
	prog := &program{params: p, uops: make([]staticUop, 0, p.Segments*(2*p.BlockSize+8)+1)}

	// Split the working set across regions; the byte-array region gets a
	// quarter, rounded to powers of two (cheap masking, realistic enough).
	per := p.WorkingSet / numRegions
	shift := uint(10)
	for (1 << (shift + 1)) <= per {
		shift++
	}
	for i := range prog.regionShift {
		prog.regionShift[i] = shift
	}

	// blockLen never reaches 2×BlockSize, so the plan never regrows.
	b := &builder{p: p, rng: rng, prog: prog, curCtr: isa.RegNone, plan: make([]planKind, 0, 2*p.BlockSize)}
	for s := 0; s < p.Segments; s++ {
		r := rng.Float64()
		switch {
		case r < p.LoopFrac:
			b.emitLoop(s)
		case r < p.LoopFrac+p.DiamondFrac:
			b.emitDiamond()
		default:
			b.emitBlock(b.blockLen())
		}
	}
	// Outer wrap: an unconditional direct jump back to the top.
	b.append(staticUop{
		class:       isa.ClassJump,
		takenTarget: 0,
		frontendRes: true,
		dstReg:      isa.RegNone,
	})
	for i := range prog.uops {
		prog.uops[i].pc = pcOf(i)
	}
	return prog
}

// builder carries generation state.
type builder struct {
	p    Params
	rng  *rand.Rand
	prog *program

	// recentNarrow/recentWide remember recently written data registers
	// per width class so ALU sources wire to recent same-width
	// producers, controlling both the producer-consumer distance
	// distribution (Figure 13) and chain width homogeneity.
	recentNarrow recentRegs
	recentWide   recentRegs
	// plan is emitBlock's scratch, reused across the program's blocks.
	plan      []planKind
	loopDepth int
	// curCtr is the counter register of the innermost enclosing loop, or
	// isa.RegNone outside of loops. Memory offsets reference it so the
	// classic "narrow index into an array" pattern is real dataflow.
	curCtr uint8
	// blockImplicitWide marks the current block's ALU uops as carrying
	// implicit wide context operands.
	blockImplicitWide bool
}

// recentRegs lists the last few registers written in one width class,
// oldest first.
type recentRegs struct {
	regs [6]uint8
	n    int
}

func (r *recentRegs) push(reg uint8) {
	if r.n == len(r.regs) {
		copy(r.regs[:], r.regs[1:])
		r.n--
	}
	r.regs[r.n] = reg
	r.n++
}

// planKind is one entry of a block's instruction plan.
type planKind uint8

const (
	planLoad planKind = iota
	planStore
	planMul
	planDiv
	planFP
	planALU
)

func (b *builder) append(u staticUop) int {
	b.prog.uops = append(b.prog.uops, u)
	return len(b.prog.uops) - 1
}

func (b *builder) blockLen() int {
	n := b.p.BlockSize/2 + b.rng.Intn(b.p.BlockSize)
	if n < 2 {
		n = 2
	}
	return n
}

// pool returns the register pool of a width class.
func pool(narrow bool) []uint8 {
	if narrow {
		return narrowPool
	}
	return widePool
}

func (b *builder) recent(narrow bool) *recentRegs {
	if narrow {
		return &b.recentNarrow
	}
	return &b.recentWide
}

// pickDataReg returns a data register of the given width class, preferring
// recently written ones with probability DepRecency per step back.
// A small cross-pool fraction keeps the dataflow realistically impure.
func (b *builder) pickDataReg(narrow bool) uint8 {
	if b.rng.Float64() < 0.12 {
		narrow = !narrow
	}
	if rec := b.recent(narrow); rec.n > 0 {
		idx := rec.n - 1
		for idx > 0 && b.rng.Float64() > b.p.DepRecency {
			idx--
		}
		return rec.regs[idx]
	}
	pl := pool(narrow)
	return pl[b.rng.Intn(len(pl))]
}

func (b *builder) freshDataReg(narrow bool) uint8 {
	pl := pool(narrow)
	r := pl[b.rng.Intn(len(pl))]
	b.recent(narrow).push(r)
	return r
}

// pickOffsetReg chooses the address-offset register for a memory uop. The
// AddrUseFrac knob lets narrow data registers feed wide address math,
// which is what generates narrow-to-wide copies under helper steering.
func (b *builder) pickOffsetReg(counterOK bool) uint8 {
	r := b.rng.Float64()
	switch {
	case r < b.p.NarrowOffsetFrac && counterOK && b.curCtr != isa.RegNone:
		return b.curCtr
	case r < b.p.NarrowOffsetFrac+b.p.AddrUseFrac:
		return b.pickDataReg(true) // narrow data used as an index
	default:
		if b.rng.Intn(2) == 0 {
			return regStride0
		}
		return regStride1
	}
}

func (b *builder) pickRegion() int {
	r := b.rng.Float64()
	switch {
	case r < b.p.ByteDataFrac:
		return 0 // byte-array region: narrow data
	case r < b.p.ByteDataFrac+0.08:
		return 2 // pointer array: wide data
	default:
		if b.rng.Intn(2) == 0 {
			return 1
		}
		return 3
	}
}

// emitBlock emits n non-control uops according to the instruction mix.
// The mix is stratified per block (counts with probabilistic rounding,
// shuffled order) so even small programs with hot inner loops match the
// declared fractions — independent draws leave the dynamic mix at the
// mercy of which block the hot loop landed on.
//
// Implicit wide context (segment/stack state, §3.2) is a property of code
// regions, not of isolated instructions, so it is drawn per block: this
// keeps dependence chains steering-homogeneous, as real code is.
func (b *builder) emitBlock(n int) {
	p := b.p
	b.blockImplicitWide = b.rng.Float64() < 0.35

	count := func(frac float64) int {
		exact := float64(n) * frac
		c := int(exact)
		if b.rng.Float64() < exact-float64(c) {
			c++
		}
		return c
	}
	plan := b.plan[:0]
	// Indexed by planKind: the counts are drawn in this order.
	for kind, frac := range [...]float64{p.FracLoad, p.FracStore, p.FracMul, p.FracDiv, p.FracFP} {
		for k := count(frac); k > 0 && len(plan) < n; k-- {
			plan = append(plan, planKind(kind))
		}
	}
	for len(plan) < n {
		plan = append(plan, planALU)
	}
	b.rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	for _, kind := range plan {
		switch kind {
		case planLoad:
			b.emitLoad()
		case planStore:
			b.emitStore()
		case planMul:
			b.emitMulDiv(isa.ClassMul)
		case planDiv:
			b.emitMulDiv(isa.ClassDiv)
		case planFP:
			b.emitFP()
		default:
			b.emitALU()
		}
	}
	b.plan = plan
}

func (b *builder) emitLoad() {
	region := b.pickRegion()
	size := uint8(4)
	narrowDst := region == 0 // byte arrays load narrow data
	if region == 0 {
		size = 1
	}
	if region == 1 || region == 3 {
		narrowDst = b.rng.Float64() < b.p.NarrowDataFrac
	}
	u := staticUop{
		class:   isa.ClassLoad,
		op:      isa.OpLea,
		nsrc:    2,
		dstReg:  b.freshDataReg(narrowDst),
		region:  uint8(region),
		memSize: size,
	}
	u.srcReg[0] = uint8(regBase0 + region)
	u.srcReg[1] = b.pickOffsetReg(true)
	u.srcReg[2] = isa.RegNone
	b.append(u)
}

func (b *builder) emitStore() {
	region := b.pickRegion()
	size := uint8(4)
	if region == 0 {
		size = 1
	}
	u := staticUop{
		class:   isa.ClassStore,
		op:      isa.OpLea,
		nsrc:    3,
		dstReg:  isa.RegNone,
		region:  uint8(region),
		memSize: size,
	}
	u.srcReg[0] = uint8(regBase0 + region)
	u.srcReg[1] = b.pickOffsetReg(true)
	u.srcReg[2] = b.pickDataReg(region == 0 || b.rng.Float64() < b.p.NarrowDataFrac)
	b.append(u)
}

func (b *builder) emitMulDiv(class isa.Class) {
	u := staticUop{
		class:  class,
		op:     isa.OpAdd, // operation field unused for mul/div timing
		nsrc:   2,
		dstReg: b.freshDataReg(false),
	}
	u.srcReg[0] = b.pickDataReg(false)
	u.srcReg[1] = b.pickDataReg(false)
	u.srcReg[2] = isa.RegNone
	b.append(u)
}

func (b *builder) emitFP() {
	u := staticUop{
		class:  isa.ClassFP,
		nsrc:   2,
		dstReg: uint8(b.rng.Intn(8)), // FP register namespace
	}
	u.srcReg[0] = uint8(b.rng.Intn(8))
	u.srcReg[1] = uint8(b.rng.Intn(8))
	u.srcReg[2] = isa.RegNone
	b.append(u)
}

func (b *builder) emitALU() {
	r := b.rng.Float64()
	// narrowOp decides the width clique this operation works in: real
	// programs process byte/index data and pointer/word data in largely
	// separate dependence chains.
	narrowOp := b.rng.Float64() < b.p.NarrowDataFrac
	switch {
	case r < 0.18: // constant materialization with a width persona
		u := staticUop{
			class:         isa.ClassALU,
			op:            isa.OpMov,
			nsrc:          0,
			dstReg:        b.freshDataReg(narrowOp),
			hasImm:        true,
			role:          roleConst,
			narrowPersona: narrowOp,
		}
		u.srcReg[0], u.srcReg[1], u.srcReg[2] = isa.RegNone, isa.RegNone, isa.RegNone
		b.append(u)
	case r < 0.24: // stride register progression (wide address math)
		sr := uint8(regStride0)
		if b.rng.Intn(2) == 0 {
			sr = regStride1
		}
		u := staticUop{
			class:  isa.ClassALU,
			op:     isa.OpAdd,
			nsrc:   1,
			dstReg: sr,
			hasImm: true,
			imm:    uint32(b.p.StrideBytes),
			role:   roleStride,
			region: uint8(b.rng.Intn(numRegions)),
		}
		u.srcReg[0] = sr
		u.srcReg[1], u.srcReg[2] = isa.RegNone, isa.RegNone
		b.append(u)
	default: // two-source or reg+imm ALU operation within a width clique
		op := aluOps[b.rng.Intn(len(aluOps))]
		u := staticUop{
			class:        isa.ClassALU,
			op:           op,
			dstReg:       b.freshDataReg(narrowOp),
			implicitWide: b.blockImplicitWide,
		}
		u.srcReg[0] = b.pickDataReg(narrowOp)
		switch op {
		case isa.OpInc, isa.OpNot:
			u.nsrc = 1
			u.srcReg[1], u.srcReg[2] = isa.RegNone, isa.RegNone
		case isa.OpShl, isa.OpShr:
			u.nsrc = 1
			u.hasImm = true
			u.imm = uint32(1 + b.rng.Intn(7))
			u.srcReg[1], u.srcReg[2] = isa.RegNone, isa.RegNone
		default:
			if b.rng.Float64() < 0.35 {
				u.nsrc = 1
				u.hasImm = true
				u.imm = uint32(b.rng.Intn(64))
				u.srcReg[1], u.srcReg[2] = isa.RegNone, isa.RegNone
			} else {
				u.nsrc = 2
				u.srcReg[1] = b.pickDataReg(narrowOp)
				u.srcReg[2] = isa.RegNone
			}
		}
		b.append(u)
	}
}

// writesFlags reports whether an ALU operation updates the flags register,
// IA-32 style: arithmetic and logic do, data movement does not.
func writesFlags(class isa.Class, op isa.ALUOp) bool {
	if class != isa.ClassALU {
		return false
	}
	switch op {
	case isa.OpMov, isa.OpLea:
		return false
	default:
		return true
	}
}

// emitLoop generates: preheader [mov trip ; mov ctr,0], body block(s),
// bottom [inc ctr ; cmp ctr,trip ; br.nz → body head].
func (b *builder) emitLoop(segIdx int) {
	depth := b.loopDepth % 3
	trip := uint8(regTrip0 + depth%2)
	ctr := uint8(regCtr0 + depth)

	// Preheader.
	pre := staticUop{class: isa.ClassALU, op: isa.OpMov, dstReg: trip, hasImm: true, role: roleTripInit}
	pre.srcReg[0], pre.srcReg[1], pre.srcReg[2] = isa.RegNone, isa.RegNone, isa.RegNone
	b.append(pre)
	init := staticUop{class: isa.ClassALU, op: isa.OpMov, dstReg: ctr, hasImm: true, imm: 0, role: roleCtrInit}
	init.srcReg[0], init.srcReg[1], init.srcReg[2] = isa.RegNone, isa.RegNone, isa.RegNone
	b.append(init)

	head := len(b.prog.uops)
	b.loopDepth++
	prevCtr := b.curCtr
	b.curCtr = ctr
	nblocks := 1 + b.rng.Intn(2)
	for i := 0; i < nblocks; i++ {
		// One level of real loop nesting: outer iterations re-enter the
		// inner loop with a fresh counter, as array-of-array walks do.
		if b.loopDepth == 1 && b.rng.Float64() < 0.25 {
			b.emitLoop(segIdx)
		} else {
			b.emitBlock(b.blockLen())
		}
	}
	b.curCtr = prevCtr
	b.loopDepth--

	// Bottom: inc / cmp / backward branch while ctr != trip.
	inc := staticUop{class: isa.ClassALU, op: isa.OpInc, nsrc: 1, dstReg: ctr}
	inc.srcReg[0] = ctr
	inc.srcReg[1], inc.srcReg[2] = isa.RegNone, isa.RegNone
	b.append(inc)
	cmp := staticUop{class: isa.ClassALU, op: isa.OpCmp, nsrc: 2, dstReg: isa.RegNone}
	cmp.srcReg[0] = ctr
	cmp.srcReg[1] = trip
	cmp.srcReg[2] = isa.RegNone
	b.append(cmp)
	br := staticUop{
		class:       isa.ClassBranch,
		nsrc:        1,
		dstReg:      isa.RegNone,
		cond:        condNotZero,
		takenTarget: int32(head),
		isBackward:  true,
		frontendRes: true,
	}
	br.srcReg[0] = isa.RegFlags
	br.srcReg[1], br.srcReg[2] = isa.RegNone, isa.RegNone
	b.append(br)
	_ = segIdx
}

// emitDiamond generates: cond block ending in [test r,r ; br → join],
// then-a block, join.
func (b *builder) emitDiamond() {
	b.emitBlock(b.blockLen() / 2)
	tested := b.pickDataReg(b.rng.Float64() < b.p.NarrowDataFrac)
	test := staticUop{class: isa.ClassALU, op: isa.OpTest, nsrc: 2, dstReg: isa.RegNone}
	test.srcReg[0] = tested
	test.srcReg[1] = tested
	test.srcReg[2] = isa.RegNone
	b.append(test)

	brIdx := b.append(staticUop{
		class:       isa.ClassBranch,
		nsrc:        1,
		dstReg:      isa.RegNone,
		cond:        condZero,
		frontendRes: true,
	})
	b.prog.uops[brIdx].srcReg[0] = isa.RegFlags
	b.prog.uops[brIdx].srcReg[1] = isa.RegNone
	b.prog.uops[brIdx].srcReg[2] = isa.RegNone

	b.emitBlock(b.blockLen() / 2) // skipped when the branch is taken
	b.prog.uops[brIdx].takenTarget = int32(len(b.prog.uops))
}

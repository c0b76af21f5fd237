package synth

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bitwidth"
	"repro/internal/isa"
)

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.Segments = 0 },
		func(p *Params) { p.BlockSize = 1 },
		func(p *Params) { p.InnerTrip = 0 },
		func(p *Params) { p.WorkingSet = 100 },
		func(p *Params) { p.StrideBytes = 0 },
		func(p *Params) { p.DepRecency = 0 },
		func(p *Params) { p.DepRecency = 1.5 },
		func(p *Params) { p.FracLoad = -0.1 },
		func(p *Params) { p.NarrowDataFrac = 1.2 },
		func(p *Params) { p.FracLoad, p.FracStore = 0.6, 0.5 },
		func(p *Params) { p.LoopFrac, p.DiamondFrac = 0.7, 0.7 },
		func(p *Params) { p.DepRecency = math.NaN() },
		func(p *Params) { p.WidthLocality = math.NaN() },
	}
	for i, mut := range mutations {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
	if _, err := NewStream(Params{}); err == nil {
		t.Error("NewStream must reject zero params")
	}
}

func TestStreamDeterminism(t *testing.T) {
	p := DefaultParams()
	a := MustNewStream(p)
	b := MustNewStream(p)
	var ua, ub isa.Uop
	for i := 0; i < 20000; i++ {
		a.Next(&ua)
		b.Next(&ub)
		if ua != ub {
			t.Fatalf("streams diverge at uop %d:\n%v\n%v", i, &ua, &ub)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	p := DefaultParams()
	q := p
	q.Seed = 999
	a, b := MustNewStream(p), MustNewStream(q)
	var ua, ub isa.Uop
	same := 0
	for i := 0; i < 5000; i++ {
		a.Next(&ua)
		b.Next(&ub)
		if ua.PC == ub.PC && ua.DstVal == ub.DstVal {
			same++
		}
	}
	if same > 4500 {
		t.Errorf("different seeds produced near-identical streams (%d/5000)", same)
	}
}

// TestStreamSemanticConsistency: emitted ALU uops (other than the fused
// stride add-and-wrap) satisfy DstVal == Eval(op, sources), and loads/stores
// satisfy MemAddr == base+offset.
func TestStreamSemanticConsistency(t *testing.T) {
	s := MustNewStream(DefaultParams())
	var u isa.Uop
	checkedALU, checkedMem := 0, 0
	for i := 0; i < 50000; i++ {
		s.Next(&u)
		switch u.Class {
		case isa.ClassALU:
			if u.Op == isa.OpMov || u.Op == isa.OpLea {
				continue
			}
			// Stride uops are add-and-wrap fused; identified by DstVal
			// differing from the plain add while still being masked.
			a := u.SrcVal[0]
			b := uint32(0)
			if u.NSrc >= 2 {
				b = u.SrcVal[1]
			} else if u.HasImm {
				b = u.Imm
			}
			want := isa.Eval(u.Op, a, b)
			if u.DstVal != want {
				if u.Op == isa.OpAdd && u.HasImm && u.NSrc == 1 && u.DstVal == (want&(u.DstVal|want)) {
					continue // wrapped stride progression
				}
				// Allow the wrap case: DstVal must then be want masked.
				if u.Op == isa.OpAdd && u.DstVal < want {
					continue
				}
				t.Fatalf("uop %d: DstVal=%#x want Eval=%#x (%v)", i, u.DstVal, want, &u)
			}
			checkedALU++
		case isa.ClassLoad, isa.ClassStore:
			if u.MemAddr != u.SrcVal[0]+u.SrcVal[1] {
				t.Fatalf("uop %d: MemAddr=%#x, base+off=%#x", i, u.MemAddr, u.SrcVal[0]+u.SrcVal[1])
			}
			checkedMem++
		}
	}
	if checkedALU < 1000 || checkedMem < 1000 {
		t.Errorf("insufficient coverage: alu=%d mem=%d", checkedALU, checkedMem)
	}
}

func TestStoreLoadOverlay(t *testing.T) {
	m := newMemory(buildProgram(DefaultParams()), 7)
	addr := uint32(0x10000040)
	m.store(addr, 0xDEADBEEF, 4)
	if got := m.load(addr, 1, 4); got != 0xDEADBEEF {
		t.Errorf("load after store = %#x", got)
	}
	m.store(addr, 0x1FF, 1)
	if got := m.load(addr, 0, 1); got != 0xFF {
		t.Errorf("byte store must truncate: %#x", got)
	}
}

func TestMemoryRegionPersonalities(t *testing.T) {
	m := newMemory(buildProgram(DefaultParams()), 3)
	narrow0, wide2 := 0, 0
	for i := uint32(0); i < 1000; i++ {
		if bitwidth.IsNarrow(m.load(m.bases[0]+i, 0, 1)) {
			narrow0++
		}
		if !bitwidth.IsNarrow(m.load(m.bases[2]+i*4, 2, 4)) {
			wide2++
		}
	}
	if narrow0 != 1000 {
		t.Errorf("byte region must be all narrow, got %d/1000", narrow0)
	}
	if wide2 < 990 {
		t.Errorf("pointer region must be wide, got %d/1000", wide2)
	}
}

func TestOverlayGenerationalClear(t *testing.T) {
	m := newMemory(buildProgram(DefaultParams()), 3)
	for i := uint32(0); i < overlayCap+10; i++ {
		m.store(0x10000000+i*4, i, 4)
	}
	if len(m.overlay) > overlayCap {
		t.Errorf("overlay exceeded cap: %d", len(m.overlay))
	}
}

// TestStreamStatistics: the default profile produces the paper-shaped
// aggregate statistics the calibration targets.
func TestStreamStatistics(t *testing.T) {
	s := MustNewStream(DefaultParams())
	var u isa.Uop
	const n = 200000

	var (
		total, branches, loads, stores int
		narrowResults, resultsWithDest int
		branchTaken                    int
	)
	for i := 0; i < n; i++ {
		s.Next(&u)
		total++
		switch u.Class {
		case isa.ClassBranch:
			branches++
			if u.Taken {
				branchTaken++
			}
		case isa.ClassLoad:
			loads++
		case isa.ClassStore:
			stores++
		}
		if u.HasDest() || u.WritesFlags {
			resultsWithDest++
			if bitwidth.IsNarrow(u.DstVal) {
				narrowResults++
			}
		}
	}
	if branches == 0 || loads == 0 || stores == 0 {
		t.Fatal("stream missing instruction classes")
	}
	loadFrac := float64(loads) / float64(total)
	if loadFrac < 0.08 || loadFrac > 0.40 {
		t.Errorf("load fraction = %.3f, outside sanity band", loadFrac)
	}
	narrowFrac := float64(narrowResults) / float64(resultsWithDest)
	if narrowFrac < 0.35 || narrowFrac > 0.95 {
		t.Errorf("narrow result fraction = %.3f, outside calibration band", narrowFrac)
	}
	takenFrac := float64(branchTaken) / float64(branches)
	if takenFrac < 0.3 || takenFrac > 0.99 {
		t.Errorf("taken fraction = %.3f implausible", takenFrac)
	}
}

// TestLoopsTerminate: backward branches eventually fall through — the
// stream keeps making forward progress through the whole program.
func TestLoopsTerminate(t *testing.T) {
	p := DefaultParams()
	p.LoopFrac = 1.0
	p.DiamondFrac = 0.0
	s := MustNewStream(p)
	var u isa.Uop
	seen := make(map[uint32]bool)
	for i := 0; i < 300000; i++ {
		s.Next(&u)
		seen[u.PC] = true
	}
	// All static uops should be visited (loops can't capture execution).
	if got := len(seen); got < s.StaticUops()*9/10 {
		t.Errorf("visited only %d of %d static uops", got, s.StaticUops())
	}
}

// TestStaticUopsBounded: program size scales with Segments and stays
// within the width predictor's useful range for default profiles.
func TestStaticUopsBounded(t *testing.T) {
	small, large := DefaultParams(), DefaultParams()
	small.Segments = 4
	large.Segments = 80
	ss, sl := MustNewStream(small), MustNewStream(large)
	if ss.StaticUops() >= sl.StaticUops() {
		t.Errorf("program size must grow with segments: %d vs %d", ss.StaticUops(), sl.StaticUops())
	}
}

// TestBranchFlagsDependency: every conditional branch reads the flags
// register and carries the flags value it tested.
func TestBranchFlagsDependency(t *testing.T) {
	s := MustNewStream(DefaultParams())
	var u isa.Uop
	var lastFlags uint32
	sawFlags := false
	for i := 0; i < 50000; i++ {
		s.Next(&u)
		if u.WritesFlags {
			lastFlags = u.DstVal
			sawFlags = true
		}
		if u.Class == isa.ClassBranch {
			if !u.ReadsFlags || u.SrcReg[0] != isa.RegFlags {
				t.Fatal("branch must read the flags register")
			}
			if sawFlags && u.SrcVal[0] != lastFlags {
				t.Fatalf("branch flags value %#x != last producer %#x", u.SrcVal[0], lastFlags)
			}
		}
	}
}

// TestHash32Distribution sanity: quick property that hash32 is not
// constant and spreads low bits.
func TestHash32(t *testing.T) {
	f := func(x uint32) bool { return hash32(x) != hash32(x+1) || x == x+1 }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

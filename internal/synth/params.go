// Package synth generates synthetic IA-32-like uop traces by building a
// small random program (basic blocks, loop nests, diamonds) and executing
// it functionally with real 32-bit values.
//
// This is the substitution for the paper's proprietary Intel traces: every
// property the steering policies observe — value widths, carry behaviour,
// flags dependencies, producer-consumer distance, PC locality, memory
// footprint — is produced by genuine execution of a program whose
// statistical shape is set by Params, not by sampling labels from a
// distribution. Loop counters really count, compares really subtract, and
// address arithmetic really adds a narrow offset to a wide base, so the
// width predictors and carry checks downstream are exercised honestly.
package synth

import "fmt"

// Params describes the statistical shape of a synthetic program. The
// workload package provides calibrated instances per benchmark.
type Params struct {
	// Seed drives all generation and execution randomness. Streams are
	// fully deterministic given (Params, Seed).
	Seed int64

	// Program shape.
	Segments  int // top-level program segments (loops, straights, diamonds)
	BlockSize int // mean uops per basic block

	// Instruction mix. Fractions of non-control uops; the remainder is
	// plain ALU work. Loop overhead (counter increments, compares,
	// bottom branches) is added by the structure itself.
	FracLoad  float64
	FracStore float64
	FracMul   float64
	FracDiv   float64
	FracFP    float64

	// Control shape.
	LoopFrac    float64 // fraction of segments that are inner loops
	DiamondFrac float64 // fraction of segments that are if-diamonds
	InnerTrip   int     // mean inner-loop trip count

	// Data-width behaviour.
	NarrowDataFrac float64 // fraction of constant/load value sources that are narrow
	WidthLocality  float64 // per-instance probability a value source keeps its width persona

	// Memory behaviour.
	WorkingSet       int     // total bytes across the four regions (rounded to powers of two)
	ByteDataFrac     float64 // fraction of memory uops touching the byte-array region
	NarrowOffsetFrac float64 // fraction of address offsets taken from narrow registers
	StrideBytes      int     // stride for the strided offset registers

	// AddrUseFrac is the probability that a narrow data register is used
	// as an address offset (a wide consumer). This is the copy-pressure
	// knob: high values model bzip2-like behaviour where narrow values
	// feed wide addressing, generating inter-cluster copies (§3.2).
	AddrUseFrac float64

	// DepRecency in (0,1]: geometric parameter for choosing how far back
	// the producer of an ALU source lies; higher means tighter dataflow
	// and shorter producer-consumer distance (Figure 13).
	DepRecency float64
}

// DefaultParams returns a neutral mid-range parameter set.
func DefaultParams() Params {
	return Params{
		Seed:             1,
		Segments:         12,
		BlockSize:        10,
		FracLoad:         0.22,
		FracStore:        0.10,
		FracMul:          0.01,
		FracDiv:          0.002,
		FracFP:           0.0,
		LoopFrac:         0.55,
		DiamondFrac:      0.25,
		InnerTrip:        24,
		NarrowDataFrac:   0.65,
		WidthLocality:    0.95,
		WorkingSet:       64 << 10,
		ByteDataFrac:     0.4,
		NarrowOffsetFrac: 0.5,
		StrideBytes:      16,
		AddrUseFrac:      0.2,
		DepRecency:       0.45,
	}
}

// Validate reports the first structural problem with the parameters. The
// range checks are written to reject NaN, so valid Params always equal
// themselves (NewStream keys its program map by them).
func (p Params) Validate() error {
	switch {
	case p.Segments < 1:
		return fmt.Errorf("synth: Segments must be >= 1, got %d", p.Segments)
	case p.BlockSize < 2:
		return fmt.Errorf("synth: BlockSize must be >= 2, got %d", p.BlockSize)
	case p.InnerTrip < 1:
		return fmt.Errorf("synth: InnerTrip must be >= 1, got %d", p.InnerTrip)
	case p.WorkingSet < 1024:
		return fmt.Errorf("synth: WorkingSet must be >= 1KiB, got %d", p.WorkingSet)
	case p.StrideBytes < 1:
		return fmt.Errorf("synth: StrideBytes must be >= 1, got %d", p.StrideBytes)
	case !(p.DepRecency > 0 && p.DepRecency <= 1):
		return fmt.Errorf("synth: DepRecency must be in (0,1], got %g", p.DepRecency)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FracLoad", p.FracLoad}, {"FracStore", p.FracStore},
		{"FracMul", p.FracMul}, {"FracDiv", p.FracDiv}, {"FracFP", p.FracFP},
		{"LoopFrac", p.LoopFrac}, {"DiamondFrac", p.DiamondFrac},
		{"NarrowDataFrac", p.NarrowDataFrac}, {"WidthLocality", p.WidthLocality},
		{"ByteDataFrac", p.ByteDataFrac}, {"NarrowOffsetFrac", p.NarrowOffsetFrac},
		{"AddrUseFrac", p.AddrUseFrac},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("synth: %s must be in [0,1], got %g", f.name, f.v)
		}
	}
	if s := p.FracLoad + p.FracStore + p.FracMul + p.FracDiv + p.FracFP; s > 0.9 {
		return fmt.Errorf("synth: instruction mix fractions sum to %g, leaving no ALU work", s)
	}
	if s := p.LoopFrac + p.DiamondFrac; s > 1 {
		return fmt.Errorf("synth: LoopFrac+DiamondFrac = %g > 1", s)
	}
	return nil
}

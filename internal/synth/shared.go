package synth

import (
	"runtime"
	"sync"
	"weak"
)

// programs maps Params to the live program built from them. A program is
// deterministic in its Params and never written after buildProgram, so
// every stream of one Params can execute the same one. The map holds weak
// pointers and a cleanup deletes a key once its program is collected: a
// program lives exactly as long as some Stream uses it, with no size knob,
// and a sweep over hundreds of workloads pins none it has finished with.
var programs struct {
	mu sync.Mutex
	m  map[Params]weak.Pointer[program]
}

// sharedProgram returns the live program for p, building it on a miss. p
// must be valid: Validate rejects NaN fields, which would make p a key
// that can be neither found nor deleted.
func sharedProgram(p Params) *program {
	programs.mu.Lock()
	prog := programs.m[p].Value()
	programs.mu.Unlock()
	if prog != nil {
		return prog
	}
	// Build outside the lock so different Params build in parallel; when
	// two builds of one Params race, the first one stored wins.
	built := buildProgram(p)
	programs.mu.Lock()
	defer programs.mu.Unlock()
	if prog := programs.m[p].Value(); prog != nil {
		return prog
	}
	if programs.m == nil {
		programs.m = make(map[Params]weak.Pointer[program])
	}
	programs.m[p] = weak.Make(built)
	runtime.AddCleanup(built, dropProgram, p)
	return built
}

// dropProgram runs once a shared program is collected. It deletes the key
// unless a newer program for p has replaced the dead entry meanwhile.
func dropProgram(p Params) {
	programs.mu.Lock()
	if programs.m[p].Value() == nil {
		delete(programs.m, p)
	}
	programs.mu.Unlock()
}

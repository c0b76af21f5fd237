package synth

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"repro/internal/isa"
)

// privateStream is a stream over a program built outside the shared map:
// the reference every shared stream must match.
func privateStream(p Params) *Stream { return newStream(p, buildProgram(p)) }

// sharedParams returns Params no other test uses, so its program's
// lifetime is this test's alone.
func sharedParams(seed int64) Params {
	p := DefaultParams()
	p.Seed = seed
	return p
}

func programLive(p Params) bool {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	_, ok := programs.m[p]
	return ok
}

// TestSharedProgramInvisible interleaves Next on two streams of one Params
// and a third with another Seed: each must equal, uop for uop, a stream
// over a private build, so sharing a program cannot change a result.
func TestSharedProgramInvisible(t *testing.T) {
	p, q := sharedParams(7001), sharedParams(7002)
	a, b, c := MustNewStream(p), MustNewStream(p), MustNewStream(q)
	if a.prog != b.prog {
		t.Fatal("two streams of one Params must share the program")
	}
	if a.prog == c.prog {
		t.Fatal("streams of different Seeds must not share a program")
	}
	refA, refB, refC := privateStream(p), privateStream(p), privateStream(q)
	var got, want isa.Uop
	for i := 0; i < 30000; i++ {
		// Uneven interleaving: b runs ahead of a, c in between.
		for _, pair := range [...][2]*Stream{{a, refA}, {b, refB}, {b, refB}, {c, refC}} {
			pair[0].Next(&got)
			pair[1].Next(&want)
			if got != want {
				t.Fatalf("step %d: shared stream diverged from a private build:\n%v\n%v", i, &got, &want)
			}
		}
	}
}

// TestSharedProgramRebuiltAfterDrop drops the last stream of a Params,
// lets the collector reclaim its program and the cleanup delete its key,
// then checks that a new stream rebuilds a correct program.
func TestSharedProgramRebuiltAfterDrop(t *testing.T) {
	p := sharedParams(7003)
	s := MustNewStream(p)
	var u isa.Uop
	for i := 0; i < 1000; i++ {
		s.Next(&u)
	}
	wp := weak.Make(s.prog)
	s = nil
	deadline := time.Now().Add(10 * time.Second)
	for wp.Value() != nil || programLive(p) {
		if time.Now().After(deadline) {
			t.Fatalf("program not reclaimed: live=%v key=%v", wp.Value() != nil, programLive(p))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	fresh, ref := MustNewStream(p), privateStream(p)
	if !programLive(p) {
		t.Fatal("rebuilt program missing from the map")
	}
	var want isa.Uop
	for i := 0; i < 20000; i++ {
		fresh.Next(&u)
		ref.Next(&want)
		if u != want {
			t.Fatalf("uop %d: rebuilt program diverged:\n%v\n%v", i, &u, &want)
		}
	}
}

// TestSharedProgramConcurrentNewStream starts N streams of one Params at
// once: racing builds must settle on a single program that executes
// exactly like a private build.
func TestSharedProgramConcurrentNewStream(t *testing.T) {
	const n = 8
	p := sharedParams(7004)
	streams := make([]*Stream, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			streams[i] = MustNewStream(p)
		}()
	}
	close(start)
	wg.Wait()
	ref := privateStream(p)
	var want isa.Uop
	var got [n]isa.Uop
	for k := 0; k < 5000; k++ {
		ref.Next(&want)
		for i, s := range streams {
			if s.prog != streams[0].prog {
				t.Fatalf("stream %d holds a different program", i)
			}
			s.Next(&got[i])
			if got[i] != want {
				t.Fatalf("stream %d uop %d diverged:\n%v\n%v", i, k, &got[i], &want)
			}
		}
	}
}

// Allocation ceilings of the synth layer. A stream of a live program
// allocates only its own state: the Stream, the value rng (two objects),
// the memory overlay (two) and the loop guards. A cold build allocates
// the generation rng (two), the program, its uop slice and the block-plan
// scratch, the last two presized so neither regrows.
const (
	maxStreamAllocs    = 6
	maxColdBuildAllocs = 5
)

func TestSynthAllocs(t *testing.T) {
	p := sharedParams(7005)
	live := MustNewStream(p)
	var sink *Stream
	stream := testing.AllocsPerRun(50, func() { sink = MustNewStream(p) })
	if sink.prog != live.prog {
		t.Fatal("NewStream rebuilt a live program")
	}
	if stream > maxStreamAllocs {
		t.Errorf("NewStream of a live program: %.1f allocs, ceiling %d", stream, maxStreamAllocs)
	}
	var prog *program
	cold := testing.AllocsPerRun(20, func() { prog = buildProgram(p) })
	if cold > maxColdBuildAllocs {
		t.Errorf("cold program build: %.1f allocs, ceiling %d", cold, maxColdBuildAllocs)
	}
	if len(prog.uops) != len(live.prog.uops) {
		t.Fatalf("rebuild size %d != %d", len(prog.uops), len(live.prog.uops))
	}
	t.Logf("NewStream (live program) %.1f allocs, cold build %.1f allocs", stream, cold)
}

// TestStaticUopSize pins the packed layout of the program's bulk.
func TestStaticUopSize(t *testing.T) {
	if sz := unsafe.Sizeof(staticUop{}); sz != 32 {
		t.Errorf("staticUop is %d bytes, want 32", sz)
	}
}

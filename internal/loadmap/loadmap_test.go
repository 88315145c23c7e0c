package loadmap

import (
	"sync"
	"testing"

	"dcprof/internal/mem"
)

func TestStaticLayoutDisjointAligned(t *testing.T) {
	m := NewModule("exe", 0)
	a := m.AddStatic("a", 100)
	b := m.AddStatic("b", 200)
	if a.Lo%staticAlign != 0 || b.Lo%staticAlign != 0 {
		t.Error("statics not aligned")
	}
	if a.Hi > b.Lo {
		t.Error("statics overlap")
	}
	if a.Size() != 100 || b.Size() != 200 {
		t.Errorf("sizes = %d, %d", a.Size(), b.Size())
	}
	if mem.SegmentOf(a.Lo) != mem.SegStatic {
		t.Error("static placed outside static segment")
	}
}

func TestFindStatic(t *testing.T) {
	m := NewModule("exe", 0)
	v := m.AddStatic("f_elem", 4096)
	if got, ok := m.FindStatic(v.Lo); !ok || got != v {
		t.Error("FindStatic(Lo) failed")
	}
	if got, ok := m.FindStatic(v.Hi - 1); !ok || got != v {
		t.Error("FindStatic(Hi-1) failed")
	}
	if _, ok := m.FindStatic(v.Hi); ok {
		t.Error("FindStatic(Hi) should miss")
	}
}

func TestZeroSizeStaticPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewModule("exe", 0).AddStatic("empty", 0)
}

func TestIPForStableAndDistinct(t *testing.T) {
	m := NewModule("exe", 0)
	f := m.AddFunc("main", "main.c", 1)
	g := m.AddFunc("kernel", "kernel.c", 10)

	ip1 := f.IPFor(5)
	ip2 := f.IPFor(6)
	ip3 := g.IPFor(5)
	if ip1 == ip2 || ip1 == ip3 || ip2 == ip3 {
		t.Error("distinct statements share an IP")
	}
	if f.IPFor(5) != ip1 {
		t.Error("IPFor not stable")
	}
	if !m.ContainsIP(ip1) {
		t.Error("IP outside module text span")
	}
}

func TestResolveRoundTrip(t *testing.T) {
	m := NewModule("exe", 0)
	f := m.AddFunc("solve", "solver.c", 100)
	ip := f.IPFor(123)
	fn, line, ok := m.Resolve(ip)
	if !ok || fn != f || line != 123 {
		t.Errorf("Resolve = %v, %d, %v", fn, line, ok)
	}
	if _, _, ok := m.Resolve(ip + 2); ok {
		t.Error("bogus IP resolved")
	}
}

func TestMapLoadUnload(t *testing.T) {
	lm := NewMap()
	exe := lm.Load("exe")
	lib := lm.Load("libhypre.so")
	if len(lm.Modules()) != 2 {
		t.Fatal("expected 2 modules")
	}

	ve := exe.AddStatic("global_exe", 128)
	vl := lib.AddStatic("global_lib", 128)

	// Cross-module static resolution.
	if got, ok := lm.FindStatic(ve.Lo + 5); !ok || got != ve {
		t.Error("exe static not found via map")
	}
	if got, ok := lm.FindStatic(vl.Lo + 5); !ok || got != vl {
		t.Error("lib static not found via map")
	}

	// Unload drops the library's statics but not the executable's.
	if !lm.Unload(lib) {
		t.Fatal("Unload returned false")
	}
	if _, ok := lm.FindStatic(vl.Lo + 5); ok {
		t.Error("unloaded library's static still resolves")
	}
	if _, ok := lm.FindStatic(ve.Lo + 5); !ok {
		t.Error("executable static lost after library unload")
	}
	if lm.Unload(lib) {
		t.Error("double unload succeeded")
	}
}

func TestMapResolveIPAcrossModules(t *testing.T) {
	lm := NewMap()
	exe := lm.Load("exe")
	lib := lm.Load("lib.so")
	fe := exe.AddFunc("main", "main.c", 1)
	fl := lib.AddFunc("helper", "helper.c", 1)
	ipe, ipl := fe.IPFor(2), fl.IPFor(3)

	if mod, fn, line, ok := lm.ResolveIP(ipe); !ok || mod != exe || fn != fe || line != 2 {
		t.Error("exe IP resolution failed")
	}
	if mod, fn, line, ok := lm.ResolveIP(ipl); !ok || mod != lib || fn != fl || line != 3 {
		t.Error("lib IP resolution failed")
	}
	if _, _, _, ok := lm.ResolveIP(0xdeadbeef); ok {
		t.Error("unknown IP resolved")
	}
}

func TestModuleDataSegmentsDisjoint(t *testing.T) {
	lm := NewMap()
	m0 := lm.Load("a")
	m1 := lm.Load("b")
	v0 := m0.AddStatic("x", mem.PageSize)
	v1 := m1.AddStatic("x", mem.PageSize) // same name, different module
	if v0.Lo == v1.Lo {
		t.Error("modules share data addresses")
	}
	// Lookup disambiguates by address despite the shared name.
	if got, _ := lm.FindStatic(v0.Lo); got.Module != m0 {
		t.Error("wrong module for v0")
	}
	if got, _ := lm.FindStatic(v1.Lo); got.Module != m1 {
		t.Error("wrong module for v1")
	}
}

func TestConcurrentIPFor(t *testing.T) {
	m := NewModule("exe", 0)
	f := m.AddFunc("hot", "hot.c", 1)
	const workers = 16
	ips := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ips[w] = f.IPFor(42)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if ips[w] != ips[0] {
			t.Fatal("racing IPFor returned different addresses")
		}
	}
	if fn, line, ok := m.Resolve(ips[0]); !ok || fn != f || line != 42 {
		t.Error("racy IP does not resolve")
	}
}

// TestConcurrentIPForOverlappingLines has goroutines ask for overlapping
// line sets of two functions at once, so new lines are published while
// other goroutines read the map lock-free. Each (function, line) must get
// one IP, distinct pairs distinct IPs, and every IP must resolve back.
func TestConcurrentIPForOverlappingLines(t *testing.T) {
	m := NewModule("exe", 0)
	fns := []*Function{m.AddFunc("a", "a.c", 1), m.AddFunc("b", "b.c", 100)}
	const workers, lines = 8, 64
	got := make([][2][lines]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < lines; k++ {
				line := (k + w*lines/workers) % lines // each worker starts elsewhere
				for fi, f := range fns {
					got[w][fi][line] = f.IPFor(line)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for fi, f := range fns {
		for line := 0; line < lines; line++ {
			ip := got[0][fi][line]
			for w := 1; w < workers; w++ {
				if got[w][fi][line] != ip {
					t.Fatalf("%s line %d: workers got IPs %#x and %#x", f.Name, line, ip, got[w][fi][line])
				}
			}
			if seen[ip] {
				t.Fatalf("%s line %d: IP %#x already handed to another statement", f.Name, line, ip)
			}
			seen[ip] = true
			if rf, rl, ok := m.Resolve(ip); !ok || rf != f || rl != line {
				t.Errorf("IP %#x resolves to %v line %d, want %s line %d", ip, rf, rl, f.Name, line)
			}
		}
	}
}

// TestIPForKnownLineAllocFree gates the lock-free read at zero allocations.
func TestIPForKnownLineAllocFree(t *testing.T) {
	f := NewModule("exe", 0).AddFunc("main", "main.c", 1)
	f.IPFor(7)
	if allocs := testing.AllocsPerRun(1000, func() { f.IPFor(7) }); allocs != 0 {
		t.Errorf("IPFor on a known line: %v allocs, want 0", allocs)
	}
}

func TestConcurrentLoadUnloadAndResolve(t *testing.T) {
	lm := NewMap()
	exe := lm.Load("exe")
	fn := exe.AddFunc("main", "main.c", 1)
	ip := fn.IPFor(3)
	v := exe.AddStatic("g", 4096)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			lib := lm.Load("libtmp.so")
			lib.AddStatic("tmp", 128)
			lm.Unload(lib)
			// The executable's own static map grows under its readers.
			exe.AddStatic("late", 64)
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, _, _, ok := lm.ResolveIP(ip); !ok {
			t.Error("executable IP stopped resolving during library churn")
			break
		}
		if _, ok := lm.FindStatic(v.Lo); !ok {
			t.Error("executable static stopped resolving during library churn")
			break
		}
	}
	<-done
}

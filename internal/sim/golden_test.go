package sim

import (
	"testing"

	"dcprof/internal/mem"
)

// TestOneThreadProgramGolden pins the final clock, instruction count and
// memory-operation count of a fixed one-thread program that first-touches,
// interleaves, binds, frees and re-allocates memory. Only the program
// decides these numbers: a change to how the simulator synchronizes its
// shared state must leave every one of them where it is.
func TestOneThreadProgramGolden(t *testing.T) {
	p := NewProcess(testNode(), 0, 0, 1, nil)
	exe := p.LoadMap.Load("exe")
	fMain := exe.AddFunc("main", "main.c", 1)
	fInit := exe.AddFunc("init", "init.c", 20)
	fSweep := exe.AddFunc("sweep", "sweep.c", 40)

	th := p.Start()
	th.Call(fMain)
	th.At(3)
	const n = 1 << 14 // 16k doubles: 128 KiB, 32 pages
	a := th.Calloc(n, 8)
	th.At(4)
	b := th.CallocWith(n, 8, func(addr mem.Addr) { p.Space.InterleaveRange(addr, n*8) })
	th.At(5)
	c := th.CallocWith(n/4, 8, func(addr mem.Addr) { p.Space.BindRange(addr, n*2, 1) })
	for iter := 0; iter < 3; iter++ {
		th.At(6 + iter)
		th.Call(fSweep)
		for i := 0; i < n; i += 3 {
			th.At(41 + i%4)
			th.Load(a+mem.Addr(i*8), 8)
			th.Load(b+mem.Addr((n-1-i)*8), 8)
			th.Work(2)
			th.Store(c+mem.Addr((i%(n/4))*8), 8)
		}
		th.Ret()
	}
	th.At(10)
	th.Free(b)
	th.Call(fInit)
	d := th.Malloc(n * 8)
	th.At(21)
	th.StoreSeq(d, n/2, 8, 16)
	th.At(22)
	th.LoadSeq(d+4096*3, 512, 16, 24)
	th.Ret()
	th.Ret()
	p.Finish()

	const wantClock, wantInstrs, wantMemOps = 1153534, 96066, 62534
	if th.Clock() != wantClock || th.Instructions() != wantInstrs || th.MemOps() != wantMemOps {
		t.Errorf("clock, instructions, memops = %d, %d, %d; want %d, %d, %d",
			th.Clock(), th.Instructions(), th.MemOps(), wantClock, wantInstrs, wantMemOps)
	}
}

// Package loadmap models load modules — the executable and dynamically
// loaded libraries — with the two tables the profiler consumes:
//
//   - a symbol table of static variables, each owning an address range in
//     the module's data segment (the paper tracks statics in the executable
//     *and* in dlopen'd shared libraries, at individual-variable grain);
//   - a line map associating synthetic instruction addresses with source
//     file/line, standing in for DWARF debug sections during post-mortem
//     attribution.
//
// Benchmarks declare their "source code" through this package: functions
// with files and line numbers, and static variables with sizes. Instruction
// addresses are synthesized deterministically so profiles are stable.
package loadmap

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dcprof/internal/heapmap"
	"dcprof/internal/mem"
)

// textSpanPerModule separates the synthetic text ranges of modules.
const textSpanPerModule = 1 << 32

// staticAlign aligns static variables like a linker would.
const staticAlign = 64

// Module is one load module: an executable or shared library.
type Module struct {
	// Name is the module's file name, e.g. "amg2006" or "libhypre.so".
	Name string

	index    int
	dataBase mem.Addr
	textBase uint64

	// staticMap resolves data addresses to statics without taking mu:
	// its reads are lock-free.
	staticMap heapmap.Map[*StaticVar]

	mu       sync.Mutex
	funcs    []*Function
	statics  []*StaticVar
	bssTop   mem.Addr
	ipToStmt map[uint64]stmt
	nextIP   uint64
}

type stmt struct {
	fn   *Function
	line int
}

// Function is one function symbol within a module. Its statement IPs are
// read without a lock: IPFor looks the line up in an immutable map that the
// first use of a new line copies and republishes.
type Function struct {
	// Module is the owning load module.
	Module *Module
	// Name is the linker symbol, e.g. "hypre_CAlloc" or
	// "_Z7runTestiPPc.omp_fn.0" for an outlined OpenMP region.
	Name string
	// File and StartLine locate the definition in source.
	File      string
	StartLine int

	mu     sync.Mutex                     // serializes new lines
	lineIP atomic.Pointer[map[int]uint64] // line -> IP; copy-on-write
}

// StaticVar is one static variable symbol with its data-segment range.
type StaticVar struct {
	// Module is the owning load module.
	Module *Module
	// Name is the variable symbol, e.g. "f_elem".
	Name string
	// Lo and Hi delimit the variable's address range [Lo, Hi).
	Lo, Hi mem.Addr
}

// Size returns the variable's extent in bytes.
func (v *StaticVar) Size() uint64 { return uint64(v.Hi - v.Lo) }

// NewModule creates a module that will occupy the index-th static data slot
// and text span. Callers normally go through Map.Load instead.
func NewModule(name string, index int) *Module {
	base := mem.ModuleBase(index)
	return &Module{
		Name:     name,
		index:    index,
		dataBase: base,
		bssTop:   base,
		textBase: uint64(index+1) * textSpanPerModule,
		ipToStmt: make(map[uint64]stmt),
		nextIP:   uint64(index+1) * textSpanPerModule,
	}
}

// DataBase returns the module's static data segment base.
func (m *Module) DataBase() mem.Addr { return m.dataBase }

// AddFunc declares a function symbol.
func (m *Module) AddFunc(name, file string, startLine int) *Function {
	f := &Function{Module: m, Name: name, File: file, StartLine: startLine}
	f.lineIP.Store(&map[int]uint64{})
	m.mu.Lock()
	m.funcs = append(m.funcs, f)
	m.mu.Unlock()
	return f
}

// AddStatic declares a static variable of the given size, assigning it the
// next aligned range in the module's data segment.
func (m *Module) AddStatic(name string, size uint64) *StaticVar {
	if size == 0 {
		panic(fmt.Sprintf("loadmap: static %q has zero size", name))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	lo := (m.bssTop + staticAlign - 1) &^ (staticAlign - 1)
	hi := lo + mem.Addr(size)
	if hi > m.dataBase+mem.StaticModuleSpan {
		panic(fmt.Sprintf("loadmap: module %s data segment overflow adding %q", m.Name, name))
	}
	v := &StaticVar{Module: m, Name: name, Lo: lo, Hi: hi}
	if err := m.staticMap.Insert(uint64(lo), uint64(hi), v); err != nil {
		panic("loadmap: static layout overlap: " + err.Error())
	}
	m.statics = append(m.statics, v)
	m.bssTop = hi
	return v
}

// FindStatic resolves a data address to the static variable containing it.
// Lock-free: it takes no module mutex.
func (m *Module) FindStatic(addr mem.Addr) (*StaticVar, bool) {
	return m.staticMap.Lookup(uint64(addr))
}

// Statics returns the module's static variables in declaration order.
func (m *Module) Statics() []*StaticVar {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*StaticVar, len(m.statics))
	copy(out, m.statics)
	return out
}

// Funcs returns the module's functions in declaration order.
func (m *Module) Funcs() []*Function {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Function, len(m.funcs))
	copy(out, m.funcs)
	return out
}

// IPFor returns the synthetic instruction address for a source line within
// the function, creating it on first use. Distinct (function, line) pairs
// get distinct addresses; repeated queries are stable. A known line takes
// no lock.
func (f *Function) IPFor(line int) uint64 {
	if ip, ok := (*f.lineIP.Load())[line]; ok {
		return ip
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	// Re-check: another thread may have added the line since the lock-free
	// read; its IP is the one already handed out.
	cur := *f.lineIP.Load()
	if ip, ok := cur[line]; ok {
		return ip
	}
	m := f.Module
	m.mu.Lock()
	ip := m.nextIP
	m.nextIP += 4
	m.ipToStmt[ip] = stmt{fn: f, line: line}
	m.mu.Unlock()

	next := make(map[int]uint64, len(cur)+1)
	for l, v := range cur {
		next[l] = v
	}
	next[line] = ip
	f.lineIP.Store(&next)
	return ip
}

// Resolve maps an instruction address back to its function and source line.
func (m *Module) Resolve(ip uint64) (*Function, int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.ipToStmt[ip]
	if !ok {
		return nil, 0, false
	}
	return s.fn, s.line, true
}

// ContainsIP reports whether ip falls in the module's text span.
func (m *Module) ContainsIP(ip uint64) bool {
	return ip >= m.textBase && ip < m.textBase+textSpanPerModule
}

// Map is one process's load map: the set of currently loaded modules. The
// profiler walks it to build static-variable lookup structures and the
// analyzer walks it to resolve symbols.
type Map struct {
	mu      sync.RWMutex
	modules []*Module
	nextIdx int
	// gen counts module-set changes (Load/Unload). Consumers caching IP
	// resolutions (which can go stale when a module is unloaded, or start
	// resolving when one is loaded) revalidate against it.
	gen atomic.Uint64
}

// Gen returns the module-set generation, bumped by every Load and Unload.
func (lm *Map) Gen() uint64 { return lm.gen.Load() }

// NewMap creates an empty load map.
func NewMap() *Map { return &Map{} }

// Load creates and registers a new module (executable first, then any
// dlopen'd libraries).
func (lm *Map) Load(name string) *Module {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	m := NewModule(name, lm.nextIdx)
	lm.nextIdx++
	lm.modules = append(lm.modules, m)
	lm.gen.Add(1)
	return m
}

// Unload removes a module (dlclose). Its statics stop resolving.
func (lm *Map) Unload(m *Module) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for i, mod := range lm.modules {
		if mod == m {
			lm.modules = append(lm.modules[:i], lm.modules[i+1:]...)
			lm.gen.Add(1)
			return true
		}
	}
	return false
}

// Modules returns the loaded modules in load order.
func (lm *Map) Modules() []*Module {
	lm.mu.RLock()
	defer lm.mu.RUnlock()
	out := make([]*Module, len(lm.modules))
	copy(out, lm.modules)
	return out
}

// FindStatic resolves a data address against every loaded module.
func (lm *Map) FindStatic(addr mem.Addr) (*StaticVar, bool) {
	lm.mu.RLock()
	defer lm.mu.RUnlock()
	// Modules own disjoint data spans; binary search by base.
	i := sort.Search(len(lm.modules), func(i int) bool {
		return lm.modules[i].dataBase > addr
	}) - 1
	if i < 0 {
		return nil, false
	}
	return lm.modules[i].FindStatic(addr)
}

// ResolveIP maps an instruction address to (module, function, line) across
// all loaded modules.
func (lm *Map) ResolveIP(ip uint64) (*Module, *Function, int, bool) {
	lm.mu.RLock()
	defer lm.mu.RUnlock()
	for _, m := range lm.modules {
		if m.ContainsIP(ip) {
			fn, line, ok := m.Resolve(ip)
			return m, fn, line, ok
		}
	}
	return nil, nil, 0, false
}

package cct

// Frame interning: the sample hot path must not hash three strings per
// stack frame per sample (ISSUE 5). An Interner assigns each distinct
// Frame a dense uint32 FrameID once; everything downstream — CCT child
// lookup, path insertion, tree merge — compares and hashes integers.
//
// One process-global interner (DefaultInterner) backs every tree, so
// FrameIDs are directly comparable across threads, profiles, and decoded
// files: merge never needs to translate between ID spaces.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FrameID is the dense identifier of an interned Frame. IDs are assigned
// in first-intern order starting at 0 and are stable for the life of the
// process.
type FrameID uint32

// Interner is a concurrency-safe Frame → FrameID map with lock-free reads
// on both directions of the mapping. Interning a frame already seen takes
// one sync.Map load; resolving an ID takes one atomic pointer load and an
// index — neither blocks, so samplers on every thread share one interner
// without contention.
type Interner struct {
	ids sync.Map // Frame -> FrameID

	mu     sync.Mutex
	frames []Frame                 // append-only; guarded by mu
	snap   atomic.Pointer[[]Frame] // published prefix of frames for readers
}

// NewInterner creates an empty interner.
func NewInterner() *Interner { return &Interner{} }

// Intern returns the frame's ID, assigning the next dense ID on first
// sight. Safe for concurrent use.
func (in *Interner) Intern(f Frame) FrameID {
	if id, ok := in.ids.Load(f); ok {
		return id.(FrameID)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	// Re-check: another thread may have interned f while we waited.
	if id, ok := in.ids.Load(f); ok {
		return id.(FrameID)
	}
	id := FrameID(len(in.frames))
	in.frames = append(in.frames, f)
	// Publish the new length *before* the id becomes loadable, so any
	// reader that obtains id can resolve it. In-place append is safe:
	// previously published slice headers have smaller lengths and never
	// index the new element.
	snap := in.frames
	in.snap.Store(&snap)
	in.ids.Store(f, id)
	return id
}

// LookupID returns the frame's ID without interning it.
func (in *Interner) LookupID(f Frame) (FrameID, bool) {
	if id, ok := in.ids.Load(f); ok {
		return id.(FrameID), true
	}
	return 0, false
}

// Resolve returns the frame for an ID previously returned by Intern.
func (in *Interner) Resolve(id FrameID) Frame {
	s := in.snap.Load()
	if s == nil || int(id) >= len(*s) {
		panic(fmt.Sprintf("cct: resolve of unknown FrameID %d", id))
	}
	return (*s)[id]
}

// Len returns the number of distinct frames interned so far.
func (in *Interner) Len() int {
	s := in.snap.Load()
	if s == nil {
		return 0
	}
	return len(*s)
}

// defaultInterner is the process-wide ID space every Tree uses, so trees
// built by different threads (or decoded from different files) merge by
// integer comparison alone.
var defaultInterner = NewInterner()

// DefaultInterner returns the process-global interner.
func DefaultInterner() *Interner { return defaultInterner }

// InternFrame interns f in the default interner.
func InternFrame(f Frame) FrameID { return defaultInterner.Intern(f) }

// FrameByID resolves an ID from the default interner.
func FrameByID(id FrameID) Frame { return defaultInterner.Resolve(id) }

// CompareFrameIDs is CompareFrames over two IDs of the default interner,
// comparing the frames in place rather than copying them out. Pointers
// into a published snapshot stay valid while other threads intern: a later
// Intern either appends past every published length or copies into a new
// backing array, leaving the old one to the snapshots that still hold it.
func CompareFrameIDs(a, b FrameID) int {
	if a == b {
		return 0 // interning makes equal IDs equal frames
	}
	s := *defaultInterner.snap.Load()
	return compareFrames(&s[a], &s[b])
}

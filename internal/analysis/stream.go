// The in-memory merge engine: profiles already decoded (or built) in this
// process arrive on a channel, are split by storage class and root-subtree
// hash, and are folded into shared-nothing (class, shard) accumulators
// that a pairwise Absorb reduce joins at the end. It serves Merge,
// MergePreserving and MergeStream. Measurement files do not come through
// here: they are decoded straight into per-worker accumulators (load.go).

package analysis

import (
	"runtime"
	"sync"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/temporal"
)

// streamItem is one profile entering the merge engine.
type streamItem struct {
	p     *cct.Profile
	nodes int // CCT nodes in p (0 when unknown)
}

// shardItem is one profile's contribution to one (class, shard) fold: the
// root subtrees whose frame IDs hash to the shard, plus — on shard 0 only
// — the tree root's own metrics.
type shardItem struct {
	roots       []*cct.Node
	rootMetrics metric.Vector
}

// shardOf maps a root subtree's frame ID to its fold shard (Fibonacci
// hashing: multiplicative spread of sequentially assigned interner IDs).
func shardOf(id cct.FrameID, shards int) int {
	return int((uint64(id) * 0x9e3779b97f4a7c15 >> 32) % uint64(shards))
}

// defaultShards sizes the per-class shard count so the folder goroutine
// total tracks the requested worker count, as the unsharded engine's did.
func defaultShards(workers int) int {
	return (workers + cct.NumClasses - 1) / cct.NumClasses
}

// mergeItems is the channel-fed reduction engine behind Merge,
// MergePreserving and MergeStream.
//
// Each arriving profile is split twice: by storage class, then by a hash
// of each root subtree's frame ID into one of `shards` fold shards. Every
// (class, shard) pair owns a private accumulator tree and a dedicated
// folder goroutine, and because the hash partitions root subtrees the
// accumulators are shared-nothing — no node is ever reachable from two
// shards, so folds run without locks and without false sharing. When the
// input drains, each class's shard accumulators are reduced pairwise in
// parallel rounds; disjointness makes every reduce step pointer adoption
// (cct.Tree.Absorb), not a tree walk, so the only barrier in the pipeline
// costs O(shards) pointer moves. The result is byte-identical under every
// shard count — a property test holds the encoder to that.
//
// With preserve=false incoming subtrees are adopted into the accumulators
// (the input profiles are consumed); with preserve=true they are copied
// in and the inputs are never mutated.
func mergeItems(items <-chan streamItem, workers, shards int, preserve bool) (*Database, MergeStats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards <= 0 {
		shards = defaultShards(workers)
	}
	start := time.Now()
	st := MergeStats{Workers: workers}

	chans := make([][]chan shardItem, cct.NumClasses)
	for c := range chans {
		chans[c] = make([]chan shardItem, shards)
		for k := range chans[c] {
			chans[c][k] = make(chan shardItem, 1)
		}
	}

	accs := make([][]*cct.Tree, cct.NumClasses)
	var fwg sync.WaitGroup
	for c := 0; c < cct.NumClasses; c++ {
		accs[c] = make([]*cct.Tree, shards)
		for k := 0; k < shards; k++ {
			fwg.Add(1)
			go func(c, k int) {
				defer fwg.Done()
				acc := cct.New()
				for it := range chans[c][k] {
					foldShard(acc, it, preserve)
				}
				accs[c][k] = acc
			}(c, k)
		}
	}

	// Split stage: runs inline, recording identity while fanning subtrees
	// out to their shards.
	var (
		id           identity
		lastItemSeen time.Time
		tix          = temporal.NewIndex()
		buckets      = make([]*shardItem, cct.NumClasses*shards)
	)
	for it := range items {
		st.Inputs++
		st.InputNodes += it.nodes
		id.see(it.p.Rank, it.p.Thread, it.p.Event)
		// Fold the profile's temporal sidecar BEFORE fanning its trees out:
		// the index walks node parent chains, and folders adopt and mutate
		// trees concurrently once they are on the shard channels. The fold
		// copies everything it needs, so it holds no node references after.
		// An in-memory merge has nowhere to report a rejected sidecar; the
		// index counts it as dropped.
		_ = tix.AddSeries(it.p)
		groupShards(it, shards, buckets)
		for i, b := range buckets {
			if b == nil {
				continue
			}
			buckets[i] = nil
			chans[i/shards][i%shards] <- *b
		}
		lastItemSeen = time.Now()
	}
	if st.Inputs > 0 {
		st.DecodeWall = lastItemSeen.Sub(start)
	}
	for c := range chans {
		for k := range chans[c] {
			close(chans[c][k])
		}
	}
	fwg.Wait()
	st.FoldWall = time.Since(start)

	// Hierarchical reduce: per class, pairwise parallel rounds over the
	// shard accumulators. Shards partition root subtrees, so each Absorb
	// moves pointers instead of walking trees.
	reduceStart := time.Now()
	merged := cct.NewProfile(id.rank, id.thread, id.event)
	var rwg sync.WaitGroup
	for c := 0; c < cct.NumClasses; c++ {
		rwg.Add(1)
		go func(c int) {
			defer rwg.Done()
			trees := accs[c]
			reducePairwise(len(trees), func(dst, src int) { trees[dst].Absorb(trees[src]) })
			merged.Trees[c] = trees[0]
		}(c)
	}
	rwg.Wait()
	st.ReduceWall = time.Since(reduceStart)
	st.MergeWall = time.Since(start)
	st.MergedNodes = merged.NumNodes()

	db := &Database{Merged: merged, Ranks: len(id.ranks), Threads: st.Inputs, Event: id.event, id: id, inputNodes: st.InputNodes}
	if tix.NumWindows() > 0 {
		db.Temporal = tix
	}
	return db, st
}

// reducePairwise folds n accumulators into accumulator 0 in parallel
// rounds: each round absorbs the upper half into the lower half, pair by
// pair, so the depth is log2(n) — the shape of the paper's reduction tree.
func reducePairwise(n int, absorb func(dst, src int)) {
	for n > 1 {
		half := (n + 1) / 2
		var wg sync.WaitGroup
		for i := 0; i+half < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				absorb(i, i+half)
			}(i)
		}
		wg.Wait()
		n = half
	}
}

// identity tracks which sources a merge has seen: the set of ranks, and
// the lowest (rank, thread) with its event — the merged profile's identity,
// chosen so it does not depend on arrival order.
type identity struct {
	ranks        map[int]struct{}
	rank, thread int
	event        string
}

func (id *identity) see(rank, thread int, event string) {
	if id.ranks == nil {
		id.ranks = map[int]struct{}{}
	}
	first := len(id.ranks) == 0
	id.ranks[rank] = struct{}{}
	if first || rank < id.rank || (rank == id.rank && thread < id.thread) {
		id.rank, id.thread, id.event = rank, thread, event
	}
}

// absorb folds another merge's sightings into id.
func (id *identity) absorb(o *identity) {
	if len(o.ranks) == 0 {
		return
	}
	id.see(o.rank, o.thread, o.event)
	for r := range o.ranks {
		id.ranks[r] = struct{}{}
	}
}

// groupShards partitions one profile's root subtrees into the split
// stage's (class, shard) buckets.
func groupShards(it streamItem, shards int, buckets []*shardItem) {
	bucket := func(c, k int) *shardItem {
		b := buckets[c*shards+k]
		if b == nil {
			b = &shardItem{}
			buckets[c*shards+k] = b
		}
		return b
	}
	for c, tr := range it.p.Trees {
		if tr.Root.Metrics != (metric.Vector{}) {
			bucket(c, 0).rootMetrics = tr.Root.Metrics
		}
		tr.Root.EachChild(func(r *cct.Node) {
			b := bucket(c, shardOf(r.ID(), shards))
			b.roots = append(b.roots, r)
		})
	}
}

// foldShard folds one shard item into the shard's accumulator. With
// preserve=false the item's subtrees are adopted (re-parented, no
// copying); with preserve=true they are merged in by copy and the source
// profile stays untouched.
func foldShard(acc *cct.Tree, it shardItem, preserve bool) {
	acc.Root.Metrics.Add(&it.rootMetrics)
	for _, r := range it.roots {
		if preserve {
			acc.Root.ChildID(r.ID()).MergeFrom(r)
		} else {
			acc.Root.MergeChild(r)
		}
	}
}

// mergeSlice feeds an in-memory profile slice through the engine.
func mergeSlice(profiles []*cct.Profile, workers int, preserve bool) (*Database, MergeStats) {
	items := make(chan streamItem, 1)
	go func() {
		for _, p := range profiles {
			items <- streamItem{p: p}
		}
		close(items)
	}()
	return mergeItems(items, workers, 0, preserve)
}

// MergeStream merges profiles as they arrive on ch, with the same bounded
// fan-out as Merge. Like Merge it consumes its inputs: some arriving
// profiles are adopted as accumulators and mutated.
func MergeStream(ch <-chan *cct.Profile, workers int) (*Database, MergeStats) {
	items := make(chan streamItem, 1)
	go func() {
		for p := range ch {
			items <- streamItem{p: p, nodes: p.NumNodes()}
		}
		close(items)
	}()
	return mergeItems(items, workers, 0, false)
}

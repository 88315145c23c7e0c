package cct_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
)

// randomProfile builds a profile whose trees mix narrow chains with fanouts
// past the inline child slots, so Clone copies both child layouts.
func randomProfile(seed int64) *cct.Profile {
	rng := rand.New(rand.NewSource(seed))
	p := cct.NewProfile(int(seed%3), int(seed%5), "IBS@4096")
	for i := 0; i < 20+rng.Intn(200); i++ {
		var path []cct.Frame
		for d := 0; d <= rng.Intn(6); d++ {
			path = append(path, cct.Frame{
				Kind: cct.KindCall, Module: "exe",
				Name: fmt.Sprintf("f%d", rng.Intn(12)), File: "a.c", Line: rng.Intn(3),
			})
		}
		var v metric.Vector
		v[metric.Samples] = uint64(rng.Intn(4) + 1)
		v[metric.Latency] = uint64(rng.Intn(1000))
		p.Trees[rng.Intn(cct.NumClasses)].AddSample(path, &v)
	}
	heap := p.Trees[cct.ClassHeap]
	heap.AddMetric(heap.Root, metric.Samples, uint64(rng.Intn(3)))
	return p
}

func encode(t *testing.T, p *cct.Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := profio.WriteProfile(&b, p); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCloneIsStructuralCopy: for random trees, Clone encodes to the same
// bytes as merging the tree into an empty one, shares no node with its
// source, links every node to its own parent, and leaves the source alone
// when the copy is mutated.
func TestCloneIsStructuralCopy(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		src := randomProfile(seed)
		want := cct.NewProfile(src.Rank, src.Thread, src.Event)
		want.Merge(src)
		before := encode(t, src)

		got := src.Clone()
		if !bytes.Equal(encode(t, got), encode(t, want)) {
			t.Fatalf("seed %d: Clone encodes differently from Merge into an empty profile", seed)
		}

		srcNodes := map[*cct.Node]bool{}
		for _, tr := range src.Trees {
			tr.Walk(func(n *cct.Node, _ int) bool { srcNodes[n] = true; return true })
		}
		for c, tr := range got.Trees {
			tr.Walk(func(n *cct.Node, _ int) bool {
				if srcNodes[n] {
					t.Fatalf("seed %d: clone shares a node with its source", seed)
				}
				n.EachChild(func(k *cct.Node) {
					if k.Parent() != n {
						t.Fatalf("seed %d class %d: child %v not linked to its parent", seed, c, k.Frame())
					}
					if again := n.ChildID(k.ID()); again != k {
						t.Fatalf("seed %d class %d: child %v not found by its ID", seed, c, k.Frame())
					}
				})
				tr.AddMetric(n, metric.Samples, 7)
				return true
			})
		}
		if !bytes.Equal(encode(t, src), before) {
			t.Fatalf("seed %d: mutating the clone changed the source", seed)
		}
	}
}

package analysis

import (
	"math/rand"
	"testing"

	"dcprof/internal/cct"
)

// Merge must be order-insensitive and associative: merging N profiles in
// any shuffled order, through any grouping, consuming or preserving, must
// yield the identical database (canonical sorted render). This is what
// licenses the pipeline to fold profiles in whatever order decoding
// completes.
func TestMergeOrderInsensitive(t *testing.T) {
	ps := randomProfiles(31, 3, 5) // 15 profiles
	want := canonicalProfile(MergePreserving(ps, 0).Merged)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		shuffled := cloneProfiles(ps)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		workers := rng.Intn(8) + 1

		var got string
		if trial%2 == 0 {
			got = canonicalProfile(Merge(shuffled, workers).Merged)
		} else {
			got = canonicalProfile(MergePreserving(shuffled, workers).Merged)
		}
		if got != want {
			t.Fatalf("trial %d (workers=%d): shuffled merge differs from reference", trial, workers)
		}
	}
}

func TestMergeAssociative(t *testing.T) {
	ps := randomProfiles(37, 2, 6) // 12 profiles
	want := canonicalProfile(MergePreserving(ps, 0).Merged)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		// Partition into random contiguous groups, merge each group
		// independently, then merge the group results.
		work := cloneProfiles(ps)
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		var partials []*cct.Profile
		for len(work) > 0 {
			k := rng.Intn(len(work)) + 1
			group, rest := work[:k], work[k:]
			var db *Database
			if trial%2 == 0 {
				db = Merge(group, rng.Intn(4)+1)
			} else {
				db = MergePreserving(group, rng.Intn(4)+1)
			}
			partials = append(partials, db.Merged)
			work = rest
		}
		final := MergePreserving(partials, 2)
		if got := canonicalProfile(final.Merged); got != want {
			t.Fatalf("trial %d: grouped merge of %d partials differs from flat merge",
				trial, len(partials))
		}
	}
}

// The totals invariant holds across every path and worker count.
func TestMergeTotalsInvariant(t *testing.T) {
	ps := randomProfiles(41, 2, 9)
	want := totals(ps)
	for _, workers := range []int{1, 2, 5, 16} {
		if got := MergePreserving(ps, workers).Merged.Total(); got != want {
			t.Errorf("workers=%d: total %v, want %v", workers, got, want)
		}
	}
}

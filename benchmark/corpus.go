package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
)

// denseCorpus names the synthetic thread-profile shape. It is the shape
// BENCH_merge_scale.json was measured on (scaleProfile in
// internal/analysis/shard_test.go, which a non-test package cannot
// import): 40 functions reached through many distinct depth-6 calling
// contexts. corpus_test.go pins the merged node counts so the port
// cannot drift from the original.
const denseCorpus = "dense-d6-40fn-v1"

// denseNames holds the corpus' 40 function and 7 file names, so building
// ten thousand profiles does not format the same strings a million times.
var denseNames = func() (n struct {
	fn   [40]string
	file [7]string
}) {
	for i := range n.fn {
		n.fn[i] = fmt.Sprintf("f%d", i)
	}
	for i := range n.file {
		n.file[i] = fmt.Sprintf("s%d.c", i)
	}
	return n
}()

// denseProfile builds thread profile number id of the dense corpus with
// the given sample count. The calling contexts depend only on id and the
// sample index, so every seed merges to the same tree shape; the seed
// moves the latency values, which is what keeps two seeds' inputs
// different without changing how much work they are.
func denseProfile(seed int64, id, samples int) *cct.Profile {
	rng := rand.New(rand.NewSource(seed<<20 + int64(id)))
	p := cct.NewProfile(id/64, id%64, "IBS@4096")
	path := make([]cct.Frame, 0, 7)
	for i := 0; i < samples; i++ {
		fn := (i + id) % 40
		path = path[:0]
		for d := 0; d < 6; d++ {
			f := (fn + d*7 + 3) % 40
			path = append(path, cct.Frame{
				Kind: cct.KindCall, Module: "exe",
				Name: denseNames.fn[f], File: denseNames.file[f%7],
				Line: 10 + 10*((i>>uint(d))%3),
			})
		}
		leaf := (fn + i/40) % 40
		path = append(path, cct.Frame{
			Kind: cct.KindStmt, Module: "exe",
			Name: denseNames.fn[leaf], File: denseNames.file[leaf%7],
			Line: 100 + 10*(i%5),
		})
		var v metric.Vector
		v[metric.Samples] = 1
		v[metric.Latency] = uint64(100 + rng.Intn(400))
		p.Trees[cct.Class(i%cct.NumClasses)].AddSample(path, &v)
	}
	return p
}

// denseProfiles builds profiles [first, first+n) of the dense corpus.
func denseProfiles(seed int64, first, n, samples int) []*cct.Profile {
	ps := make([]*cct.Profile, n)
	for i := range ps {
		ps[i] = denseProfile(seed, first+i, samples)
	}
	return ps
}

// writePlain writes the profiles into dir under their canonical names
// without fsync: set-up is meant to cost processor time, not disk flushes
// (the daemon's upload path and profio.WriteDir are where durability is
// measured). It returns the bytes written.
func writePlain(dir string, profiles []*cct.Profile) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for _, p := range profiles {
		n, err := writePlainFile(filepath.Join(dir, profio.FileName(p.Rank, p.Thread)), p)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

func writePlainFile(path string, p *cct.Profile) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := profio.WriteProfile(w, p); err != nil {
		f.Close()
		return 0, fmt.Errorf("encode %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	n, err := f.Seek(0, 1)
	if err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

package view

// Derived metrics (§5): the paper first computes derived metrics to decide
// whether a program is memory-bound enough to justify data-centric
// analysis, and only then samples data-centric events. These are the
// profile-wide indicators that gate that decision.

import (
	"fmt"
	"strings"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// Derived summarizes a profile's memory behaviour.
type Derived struct {
	// Samples is the total sample count, MemSamples those on memory ops.
	Samples, MemSamples uint64
	// AvgLatency is average sampled access latency in cycles.
	AvgLatency float64
	// MemoryBound estimates the fraction of sampled latency beyond L1/L2
	// service — the "is this worth data-centric analysis?" gate.
	MemoryBound float64
	// RemoteRatio is the fraction of memory-serving samples that crossed
	// the interconnect (remote DRAM or remote cache).
	RemoteRatio float64
	// DRAMRatio is the fraction of memory samples served by any DRAM.
	DRAMRatio float64
	// TLBMissRatio is the fraction of memory samples missing the D-TLB.
	TLBMissRatio float64
	// StoreRatio is the fraction of memory samples that were writes.
	StoreRatio float64
}

// DeriveMetrics computes the profile-wide indicators.
func DeriveMetrics(p *cct.Profile) Derived {
	total := p.Total()
	var d Derived
	d.Samples = total[metric.Samples]
	mem := total[metric.FromL1] + total[metric.FromL2] + total[metric.FromL3] +
		total[metric.FromRL3] + total[metric.FromLMEM] + total[metric.FromRMEM]
	d.MemSamples = mem
	if mem == 0 {
		return d
	}
	d.AvgLatency = float64(total[metric.Latency]) / float64(mem)
	beyondL2 := total[metric.FromL3] + total[metric.FromRL3] + total[metric.FromLMEM] + total[metric.FromRMEM]
	d.MemoryBound = float64(beyondL2) / float64(mem)
	d.RemoteRatio = float64(total[metric.FromRMEM]+total[metric.FromRL3]) / float64(mem)
	d.DRAMRatio = float64(total[metric.FromLMEM]+total[metric.FromRMEM]) / float64(mem)
	d.TLBMissRatio = float64(total[metric.TLBMiss]) / float64(mem)
	d.StoreRatio = float64(total[metric.Stores]) / float64(mem)
	return d
}

// memoryBoundGate is the threshold above which the paper would proceed
// with data-centric analysis.
const memoryBoundGate = 0.05

// WorthDataCentricAnalysis applies the paper's gating rule: only
// memory-bound programs are analyzed data-centrically.
func (d Derived) WorthDataCentricAnalysis() bool {
	return d.MemSamples > 0 && (d.MemoryBound >= memoryBoundGate || d.RemoteRatio >= memoryBoundGate)
}

// RenderDerived formats the summary.
func RenderDerived(p *cct.Profile) string {
	d := DeriveMetrics(p)
	var b strings.Builder
	b.WriteString("derived metrics\n")
	fmt.Fprintf(&b, "  samples            %d (%d on memory operations)\n", d.Samples, d.MemSamples)
	if d.MemSamples == 0 {
		b.WriteString("  (no memory samples)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  avg access latency %.1f cycles\n", d.AvgLatency)
	fmt.Fprintf(&b, "  beyond-L2 share    %.1f%%\n", 100*d.MemoryBound)
	fmt.Fprintf(&b, "  DRAM share         %.1f%%\n", 100*d.DRAMRatio)
	fmt.Fprintf(&b, "  remote share       %.1f%%\n", 100*d.RemoteRatio)
	fmt.Fprintf(&b, "  TLB miss share     %.1f%%\n", 100*d.TLBMissRatio)
	fmt.Fprintf(&b, "  store share        %.1f%%\n", 100*d.StoreRatio)
	verdict := "memory-bound: data-centric analysis recommended"
	if !d.WorthDataCentricAnalysis() {
		verdict = "not memory-bound: data-centric analysis unlikely to help"
	}
	fmt.Fprintf(&b, "  => %s\n", verdict)
	return b.String()
}

package view

// The advisor implements the guidance the paper's §7 proposes as future
// work: from the data-centric profile alone, classify each hot variable's
// pathology and suggest the transformation family the paper's case studies
// applied (interleaved allocation / parallel first touch for NUMA problems;
// layout transposes or loop interchange for spatial-locality problems).

import (
	"fmt"
	"sort"
	"strings"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// Pathology classifies what the samples say about a variable.
type Pathology uint8

const (
	// PathologyNone: the variable's accesses look healthy.
	PathologyNone Pathology = iota
	// PathologyNUMA: most sampled loads are served by remote memory or a
	// remote cache — the placement is wrong for the access pattern.
	PathologyNUMA
	// PathologySpatial: accesses miss the TLB at a high rate — large
	// strides or indirection defeating spatial locality.
	PathologySpatial
	// PathologyLatency: latency is concentrated here without a NUMA or TLB
	// signature — capacity/temporal locality problems.
	PathologyLatency
)

// String names the pathology.
func (p Pathology) String() string {
	switch p {
	case PathologyNUMA:
		return "NUMA placement"
	case PathologySpatial:
		return "spatial locality"
	case PathologyLatency:
		return "temporal locality / capacity"
	default:
		return "none"
	}
}

// Advice is the advisor's verdict for one variable.
type Advice struct {
	// Variable and Class identify the data.
	Variable string
	Class    cct.Class
	// Pathology is the diagnosed problem.
	Pathology Pathology
	// RemoteShare is the fraction of the variable's memory-serving samples
	// that came from remote memory or a remote cache.
	RemoteShare float64
	// TLBMissShare is the fraction of its samples that missed the TLB.
	TLBMissShare float64
	// LatencyShare is its share of the profile's total sampled latency.
	LatencyShare float64
	// Suggestion is the recommended transformation.
	Suggestion string
}

// adviceThresholds tune the classifier.
const (
	adviceMinLatencyShare = 0.02
	adviceNUMAShare       = 0.5
	adviceTLBShare        = 0.3
)

// Advise inspects every variable in the profile and returns suggestions for
// the ones whose samples exhibit a recognizable pathology, ordered by
// latency share.
func Advise(p *cct.Profile) []Advice { return Freeze(p).Advise() }

// Advise is Advise of the frozen profile.
func (s *Snapshot) Advise() []Advice {
	grandLatency := s.MetricTotal(metric.Latency)
	var out []Advice
	for _, v := range s.RankVariables(metric.Latency) {
		inc := v.Node.Inclusive()
		mem := inc[metric.FromLMEM] + inc[metric.FromRMEM] + inc[metric.FromRL3]
		samples := inc[metric.Samples]
		if samples == 0 {
			continue
		}
		a := Advice{Variable: v.Name, Class: v.Class}
		if grandLatency > 0 {
			a.LatencyShare = float64(inc[metric.Latency]) / float64(grandLatency)
		}
		if mem > 0 {
			a.RemoteShare = float64(inc[metric.FromRMEM]+inc[metric.FromRL3]) / float64(mem)
		}
		a.TLBMissShare = float64(inc[metric.TLBMiss]) / float64(samples)

		if a.LatencyShare < adviceMinLatencyShare {
			continue
		}
		switch {
		case mem > 0 && a.RemoteShare >= adviceNUMAShare:
			a.Pathology = PathologyNUMA
			if v.Class == cct.ClassHeap {
				a.Suggestion = "allocate with numa_alloc_interleaved (libnuma), or switch calloc to malloc and initialize in parallel so first touch distributes pages"
			} else {
				a.Suggestion = "distribute the pages across NUMA domains (interleave) or restructure so each thread initializes the part it uses"
			}
		case a.TLBMissShare >= adviceTLBShare:
			a.Pathology = PathologySpatial
			a.Suggestion = "large access strides: transpose the array's dimensions or interchange loops so the innermost loop is unit-stride"
		default:
			a.Pathology = PathologyLatency
			a.Suggestion = "poor reuse: consider blocking/tiling, fusing the loops that touch this data, or regrouping hot fields"
		}
		out = append(out, a)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].LatencyShare > out[j].LatencyShare })
	return out
}

// RenderAdvice formats the advisor's output.
func RenderAdvice(p *cct.Profile, maxRows int) string { return Freeze(p).RenderAdvice(maxRows) }

// RenderAdvice is RenderAdvice of the frozen profile.
func (s *Snapshot) RenderAdvice(maxRows int) string {
	var b strings.Builder
	b.WriteString("optimization guidance (per-variable diagnosis)\n")
	advice := s.Advise()
	if len(advice) == 0 {
		b.WriteString("  (no variable exceeds the reporting threshold)\n")
		return b.String()
	}
	for i, a := range advice {
		if maxRows > 0 && i >= maxRows {
			break
		}
		fmt.Fprintf(&b, "%6.1f%%  %-20s %-28s remote=%.0f%% tlbmiss=%.0f%%\n",
			100*a.LatencyShare, a.Variable, "["+a.Pathology.String()+"]",
			100*a.RemoteShare, 100*a.TLBMissShare)
		fmt.Fprintf(&b, "         -> %s\n", a.Suggestion)
	}
	return b.String()
}

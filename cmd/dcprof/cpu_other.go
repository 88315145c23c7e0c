//go:build !unix

package main

// cpuSeconds returns user+system CPU time of this process; without
// getrusage it reports 0, as a failed getrusage does on Unix.
func cpuSeconds() float64 { return 0 }

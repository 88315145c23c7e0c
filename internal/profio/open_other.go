//go:build !unix

package profio

import "os"

// OpenFile opens a profile file for reading. On Unix it bypasses the
// runtime poller (open_unix.go); elsewhere it is os.Open.
func OpenFile(path string) (*os.File, error) { return os.Open(path) }

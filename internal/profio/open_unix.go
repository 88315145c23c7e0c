//go:build unix

package profio

import (
	"os"
	"syscall"
)

// OpenFile opens a profile file for reading. A profile file is a regular
// file read start to end, so it is opened without the runtime poller. On
// Linux, os.Open offers every file to the poller: two fcntl calls set
// non-blocking mode, epoll_ctl refuses the regular file, and two more
// fcntl calls clear the mode again — six system calls with the openat.
// syscall.Open and os.NewFile make two (openat and one fcntl query). Reads
// then block, as reads of a regular file do anyway. Errors are
// *os.PathError, as os.Open's are.
func OpenFile(path string) (*os.File, error) {
	for {
		fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err == nil {
			return os.NewFile(uintptr(fd), path), nil
		}
		if err != syscall.EINTR {
			return nil, &os.PathError{Op: "open", Path: path, Err: err}
		}
	}
}

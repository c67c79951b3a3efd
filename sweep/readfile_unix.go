//go:build unix

package sweep

import "syscall"

// readFile appends the file at path to buf with one open, reads until one
// comes back short, and one close: no os.File, so no poller registration,
// no fstat and no finalizer. A short read ends the file; were it ever
// only a prefix, the entry's checksum would fail and the Get would miss.
func readFile(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		if buf = buf[:len(buf)+n]; len(buf) < cap(buf) {
			return buf, nil
		}
	}
}

package vfs

import (
	"fmt"
	"path"

	"repro/internal/sim"
)

func (fs *FS) syscall(t *sim.Thread) {
	if fs.cfg.SyscallCPU > 0 {
		t.Sleep(fs.cfg.SyscallCPU)
	}
}

// Open opens a file as node, charging that node's cold metadata I/O on
// first touch. It returns a file descriptor that remembers node, so reads
// through it resolve against node's data cache.
func (fs *FS) Open(t *sim.Thread, node int, p string, flags int) (int, error) {
	fs.syscall(t)
	ino, err := fs.resolve(t, node, p, flags&O_CREAT != 0, flags&O_TRUNC != 0)
	if err != nil {
		return -1, fmt.Errorf("open %s: %w", p, err)
	}
	fd := fs.nextFD
	fs.nextFD++
	fs.fds[fd] = &openFile{inode: ino, node: node, flags: flags}
	return fd, nil
}

// resolve is the path half shared by open(2) and fopen(3): it looks p up
// (creating it when creat is set), charges node's cold metadata I/O on
// first touch of an existing file, and empties the file when trunc is set.
// A node that creates a file holds its metadata warm.
func (fs *FS) resolve(t *sim.Thread, node int, p string, creat, trunc bool) (*Inode, error) {
	checkNode(node)
	p = path.Clean(p)
	ino, ok := fs.inodes[p]
	if !ok {
		if !creat {
			return nil, ErrNotExist
		}
		m, err := fs.MountFor(p)
		if err != nil {
			return nil, err
		}
		ino = fs.newInode(p, m)
		ino.warm.add(node)
	} else {
		fs.chargeColdOpen(t, node, ino)
	}
	if trunc {
		ino.Size = 0
		ino.content = nil
	}
	return ino, nil
}

// Close closes a file descriptor.
func (fs *FS) Close(t *sim.Thread, fd int) error {
	fs.syscall(t)
	of, ok := fs.fds[fd]
	if !ok || of.closed {
		return ErrBadFD
	}
	of.closed = true
	delete(fs.fds, fd)
	return nil
}

func (fs *FS) lookupFD(fd int) (*openFile, error) {
	of, ok := fs.fds[fd]
	if !ok || of.closed {
		return nil, ErrBadFD
	}
	return of, nil
}

func accMode(flags int) int { return flags & 0x3 }

// preadSpan is the common pread path: it charges the syscall entry,
// validates the descriptor and offset, clamps count to EOF and charges the
// device read for the resulting span (served from the opener node's data
// cache, a peer's, or the backing device). Content materialization is left
// to the caller, so count-only reads charge identical simulated time
// without generating a single byte.
func (fs *FS) preadSpan(t *sim.Thread, fd int, count, off int64) (*openFile, int64, error) {
	fs.syscall(t)
	of, err := fs.lookupFD(fd)
	if err != nil {
		return nil, -1, err
	}
	if accMode(of.flags) == O_WRONLY {
		return nil, -1, ErrWriteOnly
	}
	if off < 0 || count < 0 {
		return nil, -1, ErrInvalid
	}
	ino := of.inode
	if off >= ino.Size || count == 0 {
		return of, 0, nil // EOF: no device access
	}
	n := count
	if off+n > ino.Size {
		n = ino.Size - off
	}
	if err := fs.dataReadFault(of.node, false); err != nil {
		return nil, -1, err
	}
	fs.readData(t, of.node, ino, off, n)
	return of, n, nil
}

// Pread reads into buf at the given offset without moving the file offset.
// Reading at or past EOF returns 0 bytes and no error, the POSIX behaviour
// TensorFlow's read loop relies on to detect end of file.
func (fs *FS) Pread(t *sim.Thread, fd int, buf []byte, off int64) (int, error) {
	of, n, err := fs.preadSpan(t, fd, int64(len(buf)), off)
	if err != nil {
		return -1, err
	}
	if n > 0 {
		of.inode.fillContent(buf[:n], off)
	}
	return int(n), nil
}

// PreadDiscard is the zero-materialization pread: it behaves exactly like
// Pread(fd, buf[:count], off) — same syscall CPU, same device read, same
// returned byte count — but never generates the file's bytes, for callers
// that only consume the count (TensorFlow's whole-file read loop).
func (fs *FS) PreadDiscard(t *sim.Thread, fd int, count int64, off int64) (int, error) {
	_, n, err := fs.preadSpan(t, fd, count, off)
	if err != nil {
		return -1, err
	}
	return int(n), nil
}

// Pwrite writes buf at the given offset without moving the file offset.
func (fs *FS) Pwrite(t *sim.Thread, fd int, buf []byte, off int64) (int, error) {
	fs.syscall(t)
	of, err := fs.lookupFD(fd)
	if err != nil {
		return -1, err
	}
	if accMode(of.flags) == O_RDONLY {
		return -1, ErrReadOnly
	}
	if off < 0 {
		return -1, ErrInvalid
	}
	return fs.writeAt(t, of.inode, buf, off)
}

// writeAt performs the device write and bookkeeping shared by Pwrite and
// the STDIO flush path (which bypasses the syscall wrappers, as libc's
// internals bypass the PLT).
func (fs *FS) writeAt(t *sim.Thread, ino *Inode, buf []byte, off int64) (int, error) {
	n := int64(len(buf))
	if n == 0 {
		return 0, nil
	}
	if !ino.alloc {
		fs.allocExtent(ino, 0)
	}
	fs.invalidateCached(ino)
	end := off + n
	if end > ino.Size {
		// Grow: advance the allocator cursor when this file is the most
		// recently allocated region (the common append-only case).
		grow := end - ino.Size
		if ino.Extent+ino.Size == ino.Mnt.cursor {
			ino.Mnt.cursor += grow
		}
		ino.Size = end
	}
	const contentCap = 4 << 20
	if end <= contentCap && (ino.content != nil || off == 0 || int64(len(ino.content)) >= off) {
		if int64(len(ino.content)) < end {
			ino.content = append(ino.content, make([]byte, end-int64(len(ino.content)))...)
		}
		copy(ino.content[off:end], buf)
	} else if end > contentCap {
		ino.content = nil // too large to store; sizes/timing only
	}
	ino.Mnt.Dev.Write(t, ino.Extent+off, n)
	return int(n), nil
}

// OpenFDs returns the number of open descriptors (for leak checks).
func (fs *FS) OpenFDs() int { return len(fs.fds) }

package hdf5

// The data sieve buffer reproduces H5FD sec2's default caching for
// contiguous datasets: partial accesses are staged through an aligned
// buffer (H5Pset_sieve_buf_size, 1 MiB default). Because stock HDF5 lays
// contiguous data out unaligned (right after the object header), bulk
// sequential I/O repeatedly straddles sieve windows, and every window
// change costs a read-modify-write on the write path and a serial window
// load on the read path. This — together with the synchronous metadata
// writes — is the mechanism behind the paper's "HDF5 using the DFuse mount
// gives much lower performance" result.
//
// Parallel HDF5 disables the sieve (the MPI-I/O VFD never engages it);
// File.SetSieve(0) mirrors that, and the IOR shared-file backend uses it,
// which is why HDF5 converges with the other interfaces in Figure 2.

import "daosim/internal/sim"

// sieve is the per-file staging buffer. After a materializing load the
// buffer holds the window's bytes (loaded); after a discard load or a
// geometry-only write it does not, and a dirty window in that state flushes
// geometry-only.
type sieve struct {
	size   int64
	start  int64 // aligned window start; -1 when empty
	data   []byte
	dirty  bool
	loaded bool // data holds the window's bytes
}

// DefaultSieveSize is the staging window for contiguous datasets. HDF5's
// own default sieve buffer is 64 KiB; we model a moderately tuned 256 KiB
// buffer (what many sites set) — still small enough that bulk unaligned
// transfers dissolve into serial read-modify-write round trips.
const DefaultSieveSize = int64(256) << 10

// SetSieve sets the sieve buffer size for subsequent contiguous dataset
// I/O. Zero disables staging (parallel-HDF5 behaviour). Any buffered dirty
// data is NOT implicitly flushed; call Flush first when changing modes
// mid-file. The buffer itself is allocated by the first access that needs
// real bytes.
func (f *File) SetSieve(size int64) {
	if size <= 0 {
		f.sieve = nil
		return
	}
	f.sieve = &sieve{size: size, start: -1}
}

// flushSieve writes a dirty window back through the VFD: its bytes when the
// buffer holds them, its geometry otherwise.
func (f *File) flushSieve(p *sim.Proc) error {
	s := f.sieve
	if s == nil || !s.dirty {
		return nil
	}
	var src []byte
	if s.loaded {
		src = s.data
	}
	if err := f.vfd.WriteAtFrom(p, s.start, s.size, src); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// loadSieve positions the window over the region containing off,
// read-modify-write style: flush the old window, then read the new one
// straight into the staging buffer. With materialize false the window load
// is simulated (same VFD request, same flush) without filling the buffer;
// a later materializing access to the same window re-reads it, so discard
// loads never poison the staging state. A window dirty with geometry is
// flushed before such a re-read, which then fails: its bytes were never
// written.
func (f *File) loadSieve(p *sim.Proc, off int64, materialize bool) error {
	s := f.sieve
	window := off - off%s.size
	if s.start == window && (s.loaded || !materialize) {
		return nil
	}
	if s.start != window || s.dirty {
		if err := f.flushSieve(p); err != nil {
			return err
		}
	}
	var dst []byte
	if materialize {
		if s.data == nil {
			s.data = make([]byte, s.size)
		}
		dst = s.data
	}
	if err := f.vfd.ReadAtInto(p, window, s.size, dst); err != nil {
		return err
	}
	s.start = window
	s.loaded = materialize
	return nil
}

// sieveWrite stages a contiguous-dataset write of n bytes from src through
// the sieve. Writes that exactly cover whole windows bypass the buffer (as
// HDF5 does), so aligned applications avoid the penalty — the tuning the
// ablation bench demonstrates. A nil src stages geometry only: window loads
// are discard loads and the window flushes geometry-only, with the same VFD
// requests a byte write makes.
func (f *File) sieveWrite(p *sim.Proc, off int64, n int64, src []byte) error {
	s := f.sieve
	for n > 0 {
		window := off - off%s.size
		if off == window && n >= s.size {
			// Full-window write: bypass.
			if s.start == window {
				s.start = -1 // invalidate stale staging
				s.dirty = false
			}
			var seg []byte
			if src != nil {
				seg, src = src[:s.size], src[s.size:]
			}
			if err := f.vfd.WriteAtFrom(p, off, s.size, seg); err != nil {
				return err
			}
			off += s.size
			n -= s.size
			continue
		}
		if err := f.loadSieve(p, off, src != nil); err != nil {
			return err
		}
		lo := off - s.start
		l := min(s.size-lo, n)
		if src != nil {
			copy(s.data[lo:lo+l], src[:l])
			src = src[l:]
		} else {
			s.loaded = false
		}
		s.dirty = true
		off += l
		n -= l
	}
	return nil
}

// sieveRead serves a contiguous-dataset read through the sieve, loading
// windows serially (HDF5 performs its own buffering, so the kernel's
// parallel readahead never engages). Bytes land in the caller's dst; a nil
// dst walks the same window-load sequence without materializing anything.
func (f *File) sieveRead(p *sim.Proc, off int64, n int64, dst []byte) error {
	s := f.sieve
	var pos int64
	for pos < n {
		if err := f.loadSieve(p, off+pos, dst != nil); err != nil {
			return err
		}
		lo := off + pos - s.start
		l := s.size - lo
		if l > n-pos {
			l = n - pos
		}
		if dst != nil {
			copy(dst[pos:pos+l], s.data[lo:lo+l])
		}
		pos += l
	}
	return nil
}

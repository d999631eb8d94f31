package stream

// ring is a circular byte buffer addressed by absolute stream offset: the
// byte at offset o lives at buf[o%len(buf)]. Callers keep the live window
// of offsets at most len(buf) wide; the ring only does the wrap-aware
// copies, at most two per call, for both stream halves.
type ring struct{ buf []byte }

// write copies p into the ring at offsets [off, off+len(p)).
func (r ring) write(off uint64, p []byte) {
	for len(p) > 0 {
		n := copy(r.buf[off%uint64(len(r.buf)):], p)
		p = p[n:]
		off += uint64(n)
	}
}

// read fills p from the ring's offsets [off, off+len(p)).
func (r ring) read(p []byte, off uint64) {
	for len(p) > 0 {
		n := copy(p, r.buf[off%uint64(len(r.buf)):])
		p = p[n:]
		off += uint64(n)
	}
}

// resize moves the live offsets [off, off+n) into a fresh buffer of size
// c, which must be at least n.
func (r *ring) resize(c int, off uint64, n int) {
	old := *r
	*r = ring{buf: make([]byte, c)}
	for n > 0 {
		seg := old.buf[off%uint64(len(old.buf)):]
		if len(seg) > n {
			seg = seg[:n]
		}
		r.write(off, seg)
		off += uint64(len(seg))
		n -= len(seg)
	}
}

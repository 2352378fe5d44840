package vos

import (
	"errors"
	"sort"
)

// Epoch is a logical timestamp. Updates are tagged with the epoch at which
// they were made; fetches read the state visible at a given epoch.
type Epoch uint64

// EpochMax reads the latest state.
const EpochMax = Epoch(^uint64(0))

// ErrGeometryOnly reports a read that would materialize a byte of a
// geometry-only extent. Such bytes were never stored, so a materializing read
// fails rather than return zeros that nobody wrote.
var ErrGeometryOnly = errors.New("vos: read materializes a geometry-only extent")

// Extent is one versioned write to a byte-array akey covering [Offset,
// Offset+Length) as of Epoch. Data holds the extent's Length bytes, or is nil
// for a geometry-only extent: a write recorded by its length alone because
// its writer declared no bytes. Visibility, sizes and aggregation read only
// the geometry; only a materializing read needs Data.
type Extent struct {
	Offset int64
	Length int64
	Epoch  Epoch
	Data   []byte
}

// End returns the first byte offset past the extent.
func (e Extent) End() int64 { return e.Offset + e.Length }

// piece returns the part [lo, hi) of the extent, sharing its bytes.
func (e Extent) piece(lo, hi int64) Extent {
	p := Extent{Offset: lo, Length: hi - lo, Epoch: e.Epoch}
	if e.Data != nil {
		p.Data = e.Data[lo-e.Offset : hi-e.Offset]
	}
	return p
}

// ExtentTree stores the versioned extents of one array akey, ordered by
// (offset, epoch). It is the simulator's analogue of VOS's evtree. Reads
// resolve overlapping extents by visibility: the highest epoch not past the
// read epoch wins for every byte.
type ExtentTree struct {
	// extents are sorted by Offset, then Epoch. Multiple extents may
	// overlap; MVCC keeps old versions until Aggregate.
	extents []Extent
	// maxEnd caches the high-water mark of written bytes (the array size).
	maxEnd int64
	// scratch holds the visible overlapping set of the read in flight; it is
	// retained so steady-state reads allocate nothing. Trees are confined to
	// one target xstream, so a single buffer suffices.
	scratch []Extent
}

// NewExtentTree returns an empty tree.
func NewExtentTree() *ExtentTree { return &ExtentTree{} }

// Len returns the number of stored extents.
func (t *ExtentTree) Len() int { return len(t.extents) }

// Size returns the high-water mark: one past the last written byte.
func (t *ExtentTree) Size() int64 { return t.maxEnd }

// Insert records a write of data at offset with the given epoch. Data is
// copied so the caller can reuse its buffer.
func (t *ExtentTree) Insert(offset int64, epoch Epoch, data []byte) {
	t.InsertFrom(data, offset, len(data), epoch)
}

// InsertFrom records a write of length bytes at offset with the given epoch,
// copied from src (len(src) == length) so the caller can reuse its buffer. A
// nil src records a geometry-only extent: the write's offset, length and
// epoch, with no bytes stored. It is the write-side twin of ReadInto's nil
// destination.
func (t *ExtentTree) InsertFrom(src []byte, offset int64, length int, epoch Epoch) {
	if src != nil && len(src) != length {
		panic("vos: InsertFrom src length mismatch")
	}
	if length == 0 {
		return
	}
	e := Extent{Offset: offset, Length: int64(length), Epoch: epoch}
	if src != nil {
		e.Data = append([]byte(nil), src...)
	}
	i := sort.Search(len(t.extents), func(i int) bool {
		x := t.extents[i]
		return x.Offset > e.Offset || (x.Offset == e.Offset && x.Epoch > e.Epoch)
	})
	t.extents = append(t.extents, Extent{})
	copy(t.extents[i+1:], t.extents[i:])
	t.extents[i] = e
	if e.End() > t.maxEnd {
		t.maxEnd = e.End()
	}
}

// Read resolves the bytes of [offset, offset+length) visible at epoch.
// Unwritten bytes read as zero (holes). The second result reports how many
// bytes at the start of the range were actually covered by writes visible at
// the epoch (0 when the whole range is a hole). A visible byte of a
// geometry-only extent fails the read with ErrGeometryOnly.
//
// This is the hottest path of the whole simulator — every simulated fetch
// lands here with transfer-sized ranges — so it avoids the naive
// mark-a-bool-per-byte formulation: the covered prefix comes from an
// interval walk over the (offset-ordered) visible extents, the overlap scan
// stops at the binary-searched first extent starting past the range, and a
// read fully covered by a single extent copies it without first zeroing a
// buffer. Results are byte-for-byte those of the straightforward overlay.
func (t *ExtentTree) Read(offset int64, length int, epoch Epoch) ([]byte, int64, error) {
	end := offset + int64(length)
	overlapping, covered := t.visible(offset, end, epoch)

	// A range fully covered by one extent — the common case for aligned
	// IOR-style transfers — is a straight copy: append allocates without
	// zeroing, where make([]byte, length) would clear the buffer only to
	// overwrite every byte.
	if len(overlapping) == 1 {
		if e := overlapping[0]; e.Offset <= offset && e.End() >= end {
			if e.Data == nil {
				return nil, covered, ErrGeometryOnly
			}
			return append([]byte(nil), e.Data[offset-e.Offset:end-e.Offset]...), covered, nil
		}
	}

	buf := make([]byte, length)
	if err := overlay(buf, overlapping, offset, end); err != nil {
		return nil, covered, err
	}
	return buf, covered, nil
}

// ReadInto resolves the bytes of [offset, offset+length) visible at epoch
// into dst, which must be length bytes long; every byte of dst is written
// (holes as zeros), so callers can reuse buffers across reads. A nil dst
// performs the identical visibility walk without materializing any bytes —
// the geometry-only mode backing no-materialize reads, whose covered result
// and cost are byte-identical to the materializing call, and which never
// fails. The int64 result is Read's covered-prefix length; the error is
// Read's ErrGeometryOnly. Steady-state calls allocate nothing.
func (t *ExtentTree) ReadInto(dst []byte, offset int64, length int, epoch Epoch) (int64, error) {
	if dst != nil && len(dst) != length {
		panic("vos: ReadInto dst length mismatch")
	}
	end := offset + int64(length)
	overlapping, covered := t.visible(offset, end, epoch)
	if dst == nil {
		return covered, nil
	}
	// A range fully covered by one extent needs no pre-zeroing: the copy
	// overwrites every destination byte.
	if len(overlapping) == 1 {
		if e := overlapping[0]; e.Offset <= offset && e.End() >= end {
			if e.Data == nil {
				return covered, ErrGeometryOnly
			}
			copy(dst, e.Data[offset-e.Offset:end-e.Offset])
			return covered, nil
		}
	}
	clear(dst)
	return covered, overlay(dst, overlapping, offset, end)
}

// visible collects the extents overlapping [offset, end) that are visible at
// epoch, in offset order, into the tree's scratch buffer, and returns them
// with the covered-prefix length. The scratch slice is only valid until the
// next visible call.
func (t *ExtentTree) visible(offset, end int64, epoch Epoch) ([]Extent, int64) {
	// No extent with Offset >= end can overlap; extents are offset-sorted,
	// so everything at or past this index is irrelevant.
	stop := sort.Search(len(t.extents), func(i int) bool { return t.extents[i].Offset >= end })
	overlapping := t.scratch[:0]
	for _, e := range t.extents[:stop] {
		if e.Epoch > epoch || e.End() <= offset {
			continue
		}
		overlapping = append(overlapping, e)
	}
	t.scratch = overlapping
	// The covered prefix is an interval union walk: extents arrive in
	// offset order, so the prefix extends while each next extent starts at
	// or before the current frontier.
	prefix := offset
	for _, e := range overlapping {
		if e.Offset > prefix {
			break
		}
		if e.End() > prefix {
			prefix = e.End()
		}
	}
	if prefix > end {
		prefix = end
	}
	return overlapping, prefix - offset
}

// sortByEpoch orders extents by epoch for overlap resolution (the highest
// epoch wins for every byte). The insertion sort is stable, keeping
// equal-epoch extents in offset order — exactly the order the (offset,
// epoch)-sorted tree would overlay them in — and allocation-free, unlike
// sort.SliceStable.
func sortByEpoch(exts []Extent) {
	for i := 1; i < len(exts); i++ {
		e := exts[i]
		j := i
		for j > 0 && exts[j-1].Epoch > e.Epoch {
			exts[j] = exts[j-1]
			j--
		}
		exts[j] = e
	}
}

// overlay copies the range intersection of each extent into buf (whose
// origin is offset), later extents in epoch order overwriting earlier ones.
// It fails with ErrGeometryOnly when a geometry-only extent owns any byte of
// the range, that is, when the extents after it do not shadow its part.
func overlay(buf []byte, overlapping []Extent, offset, end int64) error {
	sortByEpoch(overlapping)
	for i, e := range overlapping {
		lo, hi := max(e.Offset, offset), min(e.End(), end)
		if e.Data == nil {
			if !shadowed(lo, hi, overlapping[i+1:]) {
				return ErrGeometryOnly
			}
			continue
		}
		copy(buf[lo-offset:hi-offset], e.Data[lo-e.Offset:hi-e.Offset])
	}
	return nil
}

// shadowed reports whether the extents in later cover all of [lo, hi).
func shadowed(lo, hi int64, later []Extent) bool {
	for lo < hi {
		next := lo
		for _, e := range later {
			if e.Offset <= lo && e.End() > next {
				next = e.End()
			}
		}
		if next == lo {
			return false
		}
		lo = next
	}
	return true
}

// VisibleSize returns one past the last byte visible at epoch.
func (t *ExtentTree) VisibleSize(epoch Epoch) int64 {
	var size int64
	for _, e := range t.extents {
		if e.Epoch <= epoch && e.End() > size {
			size = e.End()
		}
	}
	return size
}

// Aggregate merges history at or below epoch into a flat, non-overlapping
// set of extents stamped with the aggregation epoch, discarding shadowed
// versions. Extents newer than epoch are preserved untouched. It returns the
// number of bytes of old version data reclaimed.
//
// Flattening works on geometry: the old extents are painted in overlay
// order onto a disjoint set of pieces, so each byte ends owned by the extent
// a read would return it from, and abutting pieces merge into runs. A run
// is all bytes or all geometry; geometry-only runs stay geometry-only and
// never build a byte image.
func (t *ExtentTree) Aggregate(epoch Epoch) int64 {
	var old, newer []Extent
	var oldBytes int64
	for _, e := range t.extents {
		if e.Epoch <= epoch {
			old = append(old, e)
			oldBytes += e.Length
		} else {
			newer = append(newer, e)
		}
	}
	if len(old) == 0 {
		return 0
	}
	sortByEpoch(old)
	var pieces []Extent
	for _, e := range old {
		pieces = paint(pieces, e)
	}
	var flat []Extent
	var keptBytes int64
	for _, pc := range pieces {
		keptBytes += pc.Length
		if n := len(flat); n > 0 && flat[n-1].End() == pc.Offset && (flat[n-1].Data == nil) == (pc.Data == nil) {
			flat[n-1].Length += pc.Length
			if pc.Data != nil {
				flat[n-1].Data = append(flat[n-1].Data, pc.Data...)
			}
			continue
		}
		run := Extent{Offset: pc.Offset, Length: pc.Length, Epoch: epoch}
		if pc.Data != nil {
			// A fresh copy: the run must not pin the reclaimed versions.
			run.Data = append([]byte(nil), pc.Data...)
		}
		flat = append(flat, run)
	}
	merged := append(flat, newer...)
	sort.SliceStable(merged, func(a, b int) bool {
		if merged[a].Offset != merged[b].Offset {
			return merged[a].Offset < merged[b].Offset
		}
		return merged[a].Epoch < merged[b].Epoch
	})
	t.extents = merged
	return oldBytes - keptBytes
}

// paint lays e over pieces, a disjoint offset-ordered set of extent parts:
// whatever of pieces lies under e is cut away and e takes its place.
func paint(pieces []Extent, e Extent) []Extent {
	i := sort.Search(len(pieces), func(i int) bool { return pieces[i].End() > e.Offset })
	j := i
	for j < len(pieces) && pieces[j].Offset < e.End() {
		j++
	}
	var repl []Extent
	if i < j && pieces[i].Offset < e.Offset {
		repl = append(repl, pieces[i].piece(pieces[i].Offset, e.Offset))
	}
	repl = append(repl, e)
	if i < j && pieces[j-1].End() > e.End() {
		repl = append(repl, pieces[j-1].piece(e.End(), pieces[j-1].End()))
	}
	return append(pieces[:i], append(repl, pieces[j:]...)...)
}

// Extents returns a copy of the extent list (for inspection and tests).
func (t *ExtentTree) Extents() []Extent {
	return append([]Extent(nil), t.extents...)
}

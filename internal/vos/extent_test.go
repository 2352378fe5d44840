package vos

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// mustRead is Read for trees holding no geometry-only extents.
func mustRead(t testing.TB, tr *ExtentTree, offset int64, length int, epoch Epoch) ([]byte, int64) {
	t.Helper()
	buf, covered, err := tr.Read(offset, length, epoch)
	if err != nil {
		t.Fatalf("Read([%d,%d)) at %d: %v", offset, offset+int64(length), epoch, err)
	}
	return buf, covered
}

func TestExtentSimpleRoundTrip(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, []byte("hello"))
	got, covered := mustRead(t, tr, 0, 5, EpochMax)
	if string(got) != "hello" || covered != 5 {
		t.Fatalf("read = %q covered=%d", got, covered)
	}
	if tr.Size() != 5 {
		t.Fatalf("size = %d", tr.Size())
	}
}

func TestExtentHolesReadZero(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(10, 1, []byte("abc"))
	got, covered := mustRead(t, tr, 5, 10, EpochMax)
	want := append(make([]byte, 5), 'a', 'b', 'c', 0, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("read = %v, want %v", got, want)
	}
	if covered != 0 {
		t.Fatalf("covered = %d, want 0 (range starts in a hole)", covered)
	}
}

func TestExtentOverwriteNewerEpochWins(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, []byte("aaaaaa"))
	tr.Insert(2, 5, []byte("BB"))
	got, _ := mustRead(t, tr, 0, 6, EpochMax)
	if string(got) != "aaBBaa" {
		t.Fatalf("latest read = %q, want aaBBaa", got)
	}
	// Reading at epoch 1 sees the original.
	got, _ = mustRead(t, tr, 0, 6, 1)
	if string(got) != "aaaaaa" {
		t.Fatalf("epoch-1 read = %q, want aaaaaa", got)
	}
	// Reading at epoch 4 (before the overwrite) also sees the original.
	got, _ = mustRead(t, tr, 0, 6, 4)
	if string(got) != "aaaaaa" {
		t.Fatalf("epoch-4 read = %q", got)
	}
}

func TestExtentInterleavedEpochOrder(t *testing.T) {
	// Writes at offsets out of order, epochs out of order with offsets:
	// resolution must always honour epoch, not insertion or offset order.
	tr := NewExtentTree()
	tr.Insert(4, 3, []byte("CCCC"))
	tr.Insert(0, 1, []byte("aaaaaaaa"))
	tr.Insert(2, 2, []byte("bbbb"))
	got, _ := mustRead(t, tr, 0, 8, EpochMax)
	if string(got) != "aabbCCCC" {
		t.Fatalf("read = %q, want aabbCCCC", got)
	}
}

func TestExtentVisibleSize(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, []byte("xxxx"))
	tr.Insert(100, 5, []byte("y"))
	if got := tr.VisibleSize(1); got != 4 {
		t.Fatalf("VisibleSize(1) = %d, want 4", got)
	}
	if got := tr.VisibleSize(EpochMax); got != 101 {
		t.Fatalf("VisibleSize(max) = %d, want 101", got)
	}
}

func TestExtentAggregateReclaims(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, bytes.Repeat([]byte("a"), 100))
	tr.Insert(0, 2, bytes.Repeat([]byte("b"), 100)) // fully shadows epoch 1
	before, _ := mustRead(t, tr, 0, 100, EpochMax)
	reclaimed := tr.Aggregate(EpochMax)
	if reclaimed != 100 {
		t.Fatalf("reclaimed = %d, want 100", reclaimed)
	}
	after, _ := mustRead(t, tr, 0, 100, EpochMax)
	if !bytes.Equal(before, after) {
		t.Fatal("aggregation changed visible data")
	}
	if tr.Len() != 1 {
		t.Fatalf("extents after aggregate = %d, want 1", tr.Len())
	}
}

func TestExtentAggregatePreservesNewer(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, []byte("aaaa"))
	tr.Insert(0, 10, []byte("ZZ")) // newer than the aggregation epoch
	tr.Aggregate(5)
	got, _ := mustRead(t, tr, 0, 4, EpochMax)
	if string(got) != "ZZaa" {
		t.Fatalf("read = %q, want ZZaa", got)
	}
	got, _ = mustRead(t, tr, 0, 4, 5)
	if string(got) != "aaaa" {
		t.Fatalf("epoch-5 read = %q, want aaaa", got)
	}
}

func TestExtentAggregateWithHoles(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, []byte("aa"))
	tr.Insert(10, 2, []byte("bb"))
	tr.Aggregate(EpochMax)
	if tr.Len() != 2 {
		t.Fatalf("aggregate merged across a hole: %d extents", tr.Len())
	}
	got, _ := mustRead(t, tr, 0, 12, EpochMax)
	want := make([]byte, 12)
	copy(want, "aa")
	copy(want[10:], "bb")
	if !bytes.Equal(got, want) {
		t.Fatalf("read = %v, want %v", got, want)
	}
}

// TestExtentMatchesReferenceBuffer is the core property test: any write
// sequence read back at the latest epoch equals a flat reference buffer,
// both before and after aggregation.
func TestExtentMatchesReferenceBuffer(t *testing.T) {
	type write struct {
		Offset uint16
		Len    uint8
		Fill   byte
	}
	f := func(writes []write) bool {
		const space = 1 << 12
		tr := NewExtentTree()
		ref := make([]byte, space)
		var maxEnd int64
		for i, w := range writes {
			off := int64(w.Offset % (space / 2))
			l := int(w.Len%64) + 1
			data := bytes.Repeat([]byte{w.Fill}, l)
			tr.Insert(off, Epoch(i+1), data)
			copy(ref[off:off+int64(l)], data)
			if off+int64(l) > maxEnd {
				maxEnd = off + int64(l)
			}
		}
		got, _ := mustRead(t, tr, 0, space, EpochMax)
		if !bytes.Equal(got, ref) {
			return false
		}
		if tr.VisibleSize(EpochMax) != maxEnd {
			return false
		}
		tr.Aggregate(EpochMax)
		got, _ = mustRead(t, tr, 0, space, EpochMax)
		return bytes.Equal(got, ref)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// FuzzReadIntoMatchesRead pins the zero-copy contract over mixed byte and
// geometry-only extents: for any write sequence and any read window,
// ReadInto fills the caller's buffer with exactly the bytes the allocating
// Read returns (holes as zeros, even over a dirty reused buffer) and reports
// the identical covered prefix; both fail with ErrGeometryOnly exactly when
// a visible byte of the window belongs to a geometry-only extent; and a nil
// destination never fails and reports the covered prefix the same writes
// would have with bytes. All of it holds again after aggregation. Each write
// is four fuzz bytes: offset (two), length, and fill, where a fill with the
// high bit set makes the write geometry-only.
func FuzzReadIntoMatchesRead(f *testing.F) {
	f.Add([]byte{0, 0, 8, 'a', 1, 0, 4, 'b'}, uint16(0), uint16(16))
	f.Add([]byte{0, 64, 32, 'x'}, uint16(60), uint16(100))
	f.Add([]byte{}, uint16(5), uint16(9))
	f.Add([]byte{0, 0, 16, 0x80, 0, 64, 4, 'c'}, uint16(0), uint16(16)) // byte extent shadowing part of a geometry one
	f.Add([]byte{0, 0, 16, 0x80, 0, 0, 16, 'd'}, uint16(0), uint16(16)) // fully shadowed geometry reads as bytes
	f.Add([]byte{0, 0, 16, 'e', 0, 32, 4, 0xff}, uint16(0), uint16(16)) // geometry over bytes
	f.Fuzz(func(t *testing.T, writes []byte, offRaw, lenRaw uint16) {
		const space = 1 << 12
		tr := NewExtentTree()
		// The reference: one owner per byte, later writes winning (epochs
		// rise with write order). 0 is a hole, 1 a byte, 2 geometry only.
		var owner [2 * space]byte
		var ref [2 * space]byte
		for i := 0; i+3 < len(writes); i += 4 {
			off := int64(writes[i])<<4 | int64(writes[i+1])>>4
			l := int(writes[i+2]%64) + 1
			fill := writes[i+3]
			var src []byte
			kind := byte(2)
			if fill < 0x80 {
				src, kind = bytes.Repeat([]byte{fill}, l), 1
			}
			tr.InsertFrom(src, off, l, Epoch(i/4+1))
			for b := off; b < off+int64(l); b++ {
				owner[b], ref[b] = kind, fill
			}
		}
		off := int64(offRaw % space)
		length := int(lenRaw%512) + 1
		window := owner[off : off+int64(length)]
		wantErr := bytes.IndexByte(window, 2) >= 0
		var wantCovered int64
		for wantCovered < int64(length) && window[wantCovered] != 0 {
			wantCovered++
		}
		want := bytes.Clone(ref[off : off+int64(length)])
		for i, k := range window {
			if k == 0 {
				want[i] = 0
			}
		}

		check := func(stage string) {
			got, covered, err := tr.Read(off, length, EpochMax)
			if wantErr != errors.Is(err, ErrGeometryOnly) || (err != nil && !wantErr) {
				t.Fatalf("%s: Read([%d,%d)) err = %v, want geometry error %v", stage, off, off+int64(length), err, wantErr)
			}
			if covered != wantCovered {
				t.Fatalf("%s: Read covered = %d, want %d", stage, covered, wantCovered)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: Read([%d,%d)) = %v, want %v", stage, off, off+int64(length), got, want)
			}
			dst := bytes.Repeat([]byte{0xee}, length) // dirty, as a reused buffer would be
			covered, err = tr.ReadInto(dst, off, length, EpochMax)
			if wantErr != errors.Is(err, ErrGeometryOnly) || (err != nil && !wantErr) {
				t.Fatalf("%s: ReadInto err = %v, want geometry error %v", stage, err, wantErr)
			}
			if covered != wantCovered {
				t.Fatalf("%s: ReadInto covered = %d, want %d", stage, covered, wantCovered)
			}
			if err == nil && !bytes.Equal(dst, want) {
				t.Fatalf("%s: ReadInto([%d,%d)) = %v, want %v", stage, off, off+int64(length), dst, want)
			}
			covered, err = tr.ReadInto(nil, off, length, EpochMax)
			if err != nil || covered != wantCovered {
				t.Fatalf("%s: discard ReadInto = %d, %v; want %d, nil", stage, covered, err, wantCovered)
			}
		}
		check("before aggregation")
		tr.Aggregate(EpochMax)
		check("after aggregation")
	})
}

func TestExtentInsertCopiesData(t *testing.T) {
	tr := NewExtentTree()
	buf := []byte("orig")
	tr.Insert(0, 1, buf)
	buf[0] = 'X'
	got, _ := mustRead(t, tr, 0, 4, EpochMax)
	if string(got) != "orig" {
		t.Fatal("extent aliased caller's buffer")
	}
}

func TestExtentEmptyInsertIgnored(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, nil)
	if tr.Len() != 0 || tr.Size() != 0 {
		t.Fatal("empty insert stored an extent")
	}
}

func TestExtentGeometryOnlyReadFailsLoudly(t *testing.T) {
	tr := NewExtentTree()
	tr.InsertFrom(nil, 0, 64, 1)
	if tr.Size() != 64 || tr.VisibleSize(EpochMax) != 64 {
		t.Fatalf("size = %d/%d, want 64", tr.Size(), tr.VisibleSize(EpochMax))
	}
	if _, _, err := tr.Read(8, 8, EpochMax); !errors.Is(err, ErrGeometryOnly) {
		t.Fatalf("Read over geometry-only bytes: err = %v, want ErrGeometryOnly", err)
	}
	if _, err := tr.ReadInto(make([]byte, 8), 60, 8, EpochMax); !errors.Is(err, ErrGeometryOnly) {
		t.Fatalf("ReadInto straddling geometry-only bytes: err = %v, want ErrGeometryOnly", err)
	}
	if covered, err := tr.ReadInto(nil, 60, 8, EpochMax); err != nil || covered != 4 {
		t.Fatalf("discard ReadInto = %d, %v; want 4, nil", covered, err)
	}
	// Bytes written over the geometry read back; the rest still fails.
	tr.Insert(0, 2, []byte("abcd"))
	if got, _ := mustRead(t, tr, 0, 4, EpochMax); string(got) != "abcd" {
		t.Fatalf("read = %q, want abcd", got)
	}
	if _, _, err := tr.Read(0, 5, EpochMax); !errors.Is(err, ErrGeometryOnly) {
		t.Fatalf("Read one byte past the overwrite: err = %v, want ErrGeometryOnly", err)
	}
}

func TestExtentAggregateGeometryOnly(t *testing.T) {
	tr := NewExtentTree()
	tr.InsertFrom(nil, 0, 100, 1)
	tr.InsertFrom(nil, 50, 100, 2) // overlaps: 50 bytes of epoch 1 shadowed
	tr.InsertFrom(nil, 150, 50, 3) // abuts: merges into one run
	tr.InsertFrom(nil, 300, 10, 4) // past a hole: its own run
	if reclaimed := tr.Aggregate(EpochMax); reclaimed != 50 {
		t.Fatalf("reclaimed = %d, want 50", reclaimed)
	}
	want := []Extent{{Offset: 0, Length: 200, Epoch: EpochMax}, {Offset: 300, Length: 10, Epoch: EpochMax}}
	got := tr.Extents()
	if len(got) != len(want) {
		t.Fatalf("extents = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Offset != want[i].Offset || got[i].Length != want[i].Length || got[i].Data != nil {
			t.Fatalf("extent %d = %+v, want geometry-only %+v", i, got[i], want[i])
		}
	}
	if covered, err := tr.ReadInto(nil, 0, 310, EpochMax); err != nil || covered != 200 {
		t.Fatalf("discard ReadInto = %d, %v; want 200, nil", covered, err)
	}
}

func TestExtentAggregateMixedRuns(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, []byte("aaaaaaaa"))
	tr.InsertFrom(nil, 2, 4, 2) // geometry in the middle of the bytes
	tr.Insert(4, 3, []byte("BB"))
	tr.Aggregate(EpochMax)
	// Runs split only where the kind changes: aa | geometry | BBaa.
	if tr.Len() != 3 {
		t.Fatalf("extents after aggregate = %+v, want 3 runs", tr.Extents())
	}
	if got, _ := mustRead(t, tr, 0, 2, EpochMax); string(got) != "aa" {
		t.Fatalf("read [0,2) = %q", got)
	}
	if got, _ := mustRead(t, tr, 4, 4, EpochMax); string(got) != "BBaa" {
		t.Fatalf("read [4,8) = %q", got)
	}
	if _, _, err := tr.Read(0, 8, EpochMax); !errors.Is(err, ErrGeometryOnly) {
		t.Fatalf("read over the geometry run: err = %v, want ErrGeometryOnly", err)
	}
}

package dfs

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"daosim/internal/placement"
	"daosim/internal/vos"
)

// freshGob returns what a new gob.Encoder writes for v: the bytes DFS
// stored before its records went through a primed codec. Their length is
// the single value's wire and media size, so the codec must match them.
func freshGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEntryCodecMatchesFreshGob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ent := entry{
			Type:  EntryType(rng.Intn(3)),
			OID:   vos.ObjectID{Hi: rng.Uint64(), Lo: rng.Uint64()},
			Chunk: rng.Int63(),
			Class: placement.ClassID(rng.Intn(math.MaxUint16 + 1)),
			Mtime: rng.Int63() - rng.Int63(),
		}
		switch i % 3 {
		case 0:
			ent = entry{}
		case 1:
			ent.OID = vos.ObjectID{Hi: math.MaxUint64, Lo: math.MaxUint64}
			ent.Chunk, ent.Mtime = 0, math.MaxInt64
		}
		got, err := entryCodec.Encode(ent)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshGob(t, ent); !bytes.Equal(got, want) {
			t.Fatalf("entry %+v:\ncodec %x\nfresh %x", ent, got, want)
		}
		if back, err := entryCodec.Decode(got); err != nil || back != ent {
			t.Fatalf("entry %+v round-tripped to %+v, %v", ent, back, err)
		}
	}
}

func TestSuperblockCodecMatchesFreshGob(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		sb := superblock{Magic: sbMagic, Version: 1, Chunk: rng.Int63n(1 << 30), Class: placement.ClassID(rng.Intn(8))}
		switch i % 3 {
		case 0:
			sb = superblock{}
		case 1:
			sb.Magic, sb.Version, sb.Chunk = math.MaxUint64, math.MinInt, math.MaxInt64
		}
		got, err := sbCodec.Encode(sb)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshGob(t, sb); !bytes.Equal(got, want) {
			t.Fatalf("superblock %+v:\ncodec %x\nfresh %x", sb, got, want)
		}
		if back, err := sbCodec.Decode(got); err != nil || back != sb {
			t.Fatalf("superblock %+v round-tripped to %+v, %v", sb, back, err)
		}
	}
}

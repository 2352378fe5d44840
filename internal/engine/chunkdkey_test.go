package engine

import (
	"fmt"
	"math"
	"testing"
)

func TestChunkDkeyRoundTrip(t *testing.T) {
	for _, idx := range []int64{0, 1, 15, 16, 255, 1 << 32, 1 << 40, math.MaxInt64} {
		dk := ChunkDkey(idx)
		if want := fmt.Sprintf("chunk.%016x", idx); string(dk) != want {
			t.Fatalf("ChunkDkey(%d) = %q, want %q", idx, dk, want)
		}
		if got, ok := DecodeChunkDkey(dk); !ok || got != idx {
			t.Fatalf("DecodeChunkDkey(%q) = %d, %v", dk, got, ok)
		}
	}
}

func TestDecodeChunkDkeyRejects(t *testing.T) {
	for _, dk := range []string{
		"chunk.1",                 // short
		"chunk.000000000000001",   // 21 bytes
		"chunk.00000000000000001", // 23 bytes
		"chunk.000000000000000g",  // non-hex digit
		"chunk.00000000000000A1",  // upper case
		"chunk.+000000000000001",  // sign
		"chunk. 000000000000001",  // leading space
		"chunk.ffffffffffffffff",  // past MaxInt64
		"chunk:0000000000000001",  // wrong prefix
		"not-a-chunk",
		".dfs_superblock",
		"",
	} {
		if idx, ok := DecodeChunkDkey([]byte(dk)); ok {
			t.Errorf("DecodeChunkDkey(%q) accepted as %d", dk, idx)
		}
	}
}

func TestDecodeChunkDkeyAllocatesNothing(t *testing.T) {
	dk := ChunkDkey(1 << 40)
	if n := testing.AllocsPerRun(100, func() { DecodeChunkDkey(dk) }); n != 0 {
		t.Fatalf("DecodeChunkDkey allocates %v times per call", n)
	}
}

// BenchmarkChunkDkey round-trips a chunk index through its dkey: the
// encode every array I/O does per chunk span and the decode that routes
// the span to its shard.
func BenchmarkChunkDkey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if idx, ok := DecodeChunkDkey(ChunkDkey(int64(i))); !ok || idx != int64(i) {
			b.Fatalf("round trip %d -> %d, %v", i, idx, ok)
		}
	}
}

package svc

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// BenchmarkStateApply decodes and applies one query-pool command, gob
// encoded once outside the loop: the per-entry cost of a pool service
// replica applying its Raft log.
func BenchmarkStateApply(b *testing.B) {
	st := NewState()
	st.apply(Command{Op: OpCreatePool, Pool: "p0", Targets: []int{0, 1, 2, 3}})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Command{Op: OpQueryPool, Pool: "p0"}); err != nil {
		b.Fatal(err)
	}
	cmd := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := st.Apply(uint64(i), cmd).(Result); r.Err != "" {
			b.Fatal(r.Err)
		}
	}
}

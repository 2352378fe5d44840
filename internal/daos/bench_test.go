package daos_test

import (
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// BenchmarkArrayWriteGeometry drives IOR-sized (1 MiB) writes whose bytes
// nobody reads through the DAOS array API on a small testbed at S2: each
// write is a full update RPC fan-out — client, fabric, engine, VOS — that
// records geometry only.
func BenchmarkArrayWriteGeometry(b *testing.B) {
	const xfer = 1 << 20
	tb := cluster.New(cluster.Small())
	defer tb.Shutdown()
	client := tb.NewClient(tb.ClientNode(0), 1)
	tb.Run(func(p *sim.Proc) {
		pool, err := client.CreatePool(p, "p0")
		if err != nil {
			b.Error(err)
			return
		}
		ct, err := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2})
		if err != nil {
			b.Error(err)
			return
		}
		arr, err := ct.OpenArray(p, ct.AllocOID(placement.S2))
		if err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := arr.WriteFrom(p, int64(i)*xfer, xfer, nil); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}

package dfs_test

import (
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// BenchmarkOpen opens an existing /dir/file on a small testbed: a
// directory entry fetch and decode per path component, then the file's
// object open — the DFS metadata path every IOR rank takes.
func BenchmarkOpen(b *testing.B) {
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
		fs, err := dfs.Mount(p, ct)
		if err != nil {
			b.Error(err)
			return
		}
		if err := fs.Mkdir(p, "/dir"); err != nil {
			b.Error(err)
			return
		}
		if _, err := fs.Create(p, "/dir/file", dfs.CreateOpts{}); err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.Open(p, "/dir/file"); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}

package dfs_test

import (
	"bytes"
	"errors"
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// withFS mounts a fresh filesystem on a small testbed.
// readFile reads n bytes at off into a fresh buffer.
func readFile(p *sim.Proc, f *dfs.File, off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	return buf, f.ReadAtInto(p, off, n, buf)
}

func withFS(t *testing.T, body func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS)) {
	t.Helper()
	tb := cluster.New(cluster.Small())
	client := tb.NewClient(tb.ClientNode(0), 1)
	tb.Run(func(p *sim.Proc) {
		pool, err := client.CreatePool(p, "p0")
		if err != nil {
			t.Error(err)
			return
		}
		ct, err := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2})
		if err != nil {
			t.Error(err)
			return
		}
		fs, err := dfs.Mount(p, ct)
		if err != nil {
			t.Error(err)
			return
		}
		body(p, tb, fs)
	})
}

func TestMountFormatsAndRemounts(t *testing.T) {
	tb := cluster.New(cluster.Small())
	c1 := tb.NewClient(tb.ClientNode(0), 1)
	c2 := tb.NewClient(tb.ClientNode(1), 2)
	tb.Run(func(p *sim.Proc) {
		pool, _ := c1.CreatePool(p, "p0")
		ct, _ := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2, ChunkSize: 1 << 20})
		fs1, err := dfs.Mount(p, ct)
		if err != nil {
			t.Error(err)
			return
		}
		if err := fs1.Mkdir(p, "/from-client1"); err != nil {
			t.Error(err)
			return
		}
		// Second client mounts the same container and sees the namespace.
		pool2, _ := c2.Connect(p, "p0")
		ct2, _ := pool2.OpenContainer(p, "c0")
		fs2, err := dfs.Mount(p, ct2)
		if err != nil {
			t.Error(err)
			return
		}
		if fs2.Chunk() != 1<<20 || fs2.Class() != placement.S2 {
			t.Errorf("superblock defaults: chunk=%d class=%v", fs2.Chunk(), fs2.Class())
		}
		info, err := fs2.Stat(p, "/from-client1")
		if err != nil || info.Type != dfs.TypeDir {
			t.Errorf("cross-client stat: %+v, %v", info, err)
		}
	})
}

func TestFileWriteRead(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, err := fs.Create(p, "/data.bin", dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
		if err := f.WriteAt(p, 0, payload); err != nil {
			t.Error(err)
			return
		}
		got, err := readFile(p, f, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read-back mismatch (err=%v)", err)
		}
		size, err := f.Size(p)
		if err != nil || size != int64(len(payload)) {
			t.Errorf("size = %d, %v", size, err)
		}
	})
}

func TestNestedDirectories(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		if err := fs.MkdirAll(p, "/a/b/c"); err != nil {
			t.Error(err)
			return
		}
		f, err := fs.Create(p, "/a/b/c/deep.txt", dfs.CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		f.WriteAt(p, 0, []byte("deep"))
		got, err := fs.Open(p, "/a/b/c/deep.txt")
		if err != nil {
			t.Error(err)
			return
		}
		data, _ := readFile(p, got, 0, 4)
		if string(data) != "deep" {
			t.Errorf("data = %q", data)
		}
		// Listing intermediate directory.
		infos, err := fs.ReadDir(p, "/a/b")
		if err != nil || len(infos) != 1 || infos[0].Name != "c" {
			t.Errorf("ReadDir(/a/b) = %v, %v", infos, err)
		}
	})
}

func TestCreateExclusive(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		if _, err := fs.Create(p, "/f", dfs.CreateOpts{}); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.Create(p, "/f", dfs.CreateOpts{}); !errors.Is(err, dfs.ErrExist) {
			t.Errorf("duplicate create err = %v", err)
		}
		if _, err := fs.OpenOrCreate(p, "/f", dfs.CreateOpts{}); err != nil {
			t.Errorf("OpenOrCreate on existing: %v", err)
		}
		if _, err := fs.OpenOrCreate(p, "/g", dfs.CreateOpts{}); err != nil {
			t.Errorf("OpenOrCreate on missing: %v", err)
		}
	})
}

func TestOpenMissing(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		if _, err := fs.Open(p, "/nope"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
		if _, err := fs.Open(p, "/no/such/dir/f"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestFileThroughNonDirFails(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, _ := fs.Create(p, "/plain", dfs.CreateOpts{})
		f.WriteAt(p, 0, []byte("x"))
		if _, err := fs.Open(p, "/plain/child"); !errors.Is(err, dfs.ErrNotDir) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestUnlink(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, _ := fs.Create(p, "/doomed", dfs.CreateOpts{})
		f.WriteAt(p, 0, bytes.Repeat([]byte("x"), 4096))
		if err := fs.Unlink(p, "/doomed"); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.Open(p, "/doomed"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("err after unlink = %v", err)
		}
	})
}

func TestUnlinkNonEmptyDir(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		fs.MkdirAll(p, "/d")
		fs.Create(p, "/d/child", dfs.CreateOpts{})
		if err := fs.Unlink(p, "/d"); !errors.Is(err, dfs.ErrNotEmpty) {
			t.Errorf("err = %v", err)
		}
		fs.Unlink(p, "/d/child")
		if err := fs.Unlink(p, "/d"); err != nil {
			t.Errorf("empty dir unlink: %v", err)
		}
	})
}

func TestRename(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, _ := fs.Create(p, "/old", dfs.CreateOpts{})
		f.WriteAt(p, 0, []byte("payload"))
		fs.MkdirAll(p, "/sub")
		if err := fs.Rename(p, "/old", "/sub/new"); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.Open(p, "/old"); !errors.Is(err, dfs.ErrNotExist) {
			t.Errorf("old path err = %v", err)
		}
		g, err := fs.Open(p, "/sub/new")
		if err != nil {
			t.Error(err)
			return
		}
		data, _ := readFile(p, g, 0, 7)
		if string(data) != "payload" {
			t.Errorf("renamed data = %q", data)
		}
	})
}

func TestPerFileClassOverride(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, err := fs.Create(p, "/wide", dfs.CreateOpts{Class: placement.SX})
		if err != nil {
			t.Error(err)
			return
		}
		if f.Class() != placement.SX {
			t.Errorf("class = %v", f.Class())
		}
		info, err := fs.Stat(p, "/wide")
		if err != nil || info.Class != placement.SX {
			t.Errorf("stat class = %v, %v", info.Class, err)
		}
		// FS default (container prop) applies otherwise.
		g, _ := fs.Create(p, "/default", dfs.CreateOpts{})
		if g.Class() != placement.S2 {
			t.Errorf("default class = %v", g.Class())
		}
	})
}

func TestReadDirHidesSuperblock(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		fs.Create(p, "/visible", dfs.CreateOpts{})
		infos, err := fs.ReadDir(p, "/")
		if err != nil {
			t.Error(err)
			return
		}
		for _, info := range infos {
			if info.Name != "visible" {
				t.Errorf("unexpected root entry %q", info.Name)
			}
		}
	})
}

func TestStatRoot(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		info, err := fs.Stat(p, "/")
		if err != nil || info.Type != dfs.TypeDir {
			t.Errorf("root stat = %+v, %v", info, err)
		}
	})
}

func TestSparseFile(t *testing.T) {
	withFS(t, func(p *sim.Proc, tb *cluster.Testbed, fs *dfs.FS) {
		f, _ := fs.Create(p, "/sparse", dfs.CreateOpts{})
		f.WriteAt(p, 10<<20, []byte("tail"))
		size, _ := f.Size(p)
		if size != 10<<20+4 {
			t.Errorf("size = %d", size)
		}
		head, err := readFile(p, f, 0, 16)
		if err != nil || !bytes.Equal(head, make([]byte, 16)) {
			t.Errorf("hole = %v, %v", head, err)
		}
	})
}

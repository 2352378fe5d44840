package profile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (size %v)", filepath.Base(path), err, fi)
		}
	}
}

func TestStartWithoutPathsIsANoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartReportsUnwritablePath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.out"), ""); err == nil {
		t.Fatal("Start accepted a CPU profile path in a missing directory")
	}
}

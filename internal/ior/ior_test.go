package ior_test

import (
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/ior"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// runCfg executes one IOR config on a small testbed with 4 ranks over 2
// nodes and returns the result.
func runCfg(t *testing.T, cfg ior.Config) *ior.Result {
	t.Helper()
	tb := cluster.New(cluster.Small())
	var res *ior.Result
	tb.Run(func(p *sim.Proc) {
		env, err := ior.NewEnv(p, tb, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		res, err = ior.Run(p, env, cfg)
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return res
}

// base returns a small verified configuration.
func base(api ior.API, fpp bool) ior.Config {
	return ior.Config{
		API:          api,
		FilePerProc:  fpp,
		BlockSize:    4 << 20,
		TransferSize: 1 << 20,
		Segments:     1,
		Iterations:   1,
		DoWrite:      true,
		DoRead:       true,
		Verify:       true,
		ReorderTasks: true,
		Class:        placement.S2,
	}
}

func checkResult(t *testing.T, res *ior.Result) {
	t.Helper()
	if res.VerifyErrors != 0 {
		t.Fatalf("verify errors: %d", res.VerifyErrors)
	}
	if res.Write.MaxGiBs <= 0 || res.Read.MaxGiBs <= 0 {
		t.Fatalf("non-positive bandwidth: %+v", res)
	}
	if res.TotalBytes != int64(res.Ranks)*4<<20 {
		t.Fatalf("total bytes = %d", res.TotalBytes)
	}
}

func TestEasyModeAllAPIs(t *testing.T) {
	for _, api := range []ior.API{ior.APIDFS, ior.APIPosix, ior.APIMPIIO, ior.APIHDF5} {
		api := api
		t.Run(string(api), func(t *testing.T) {
			checkResult(t, runCfg(t, base(api, true)))
		})
	}
}

func TestHardModeAllAPIs(t *testing.T) {
	for _, api := range []ior.API{ior.APIDFS, ior.APIPosix, ior.APIMPIIO, ior.APIHDF5} {
		api := api
		t.Run(string(api), func(t *testing.T) {
			checkResult(t, runCfg(t, base(api, false)))
		})
	}
}

func TestCollectiveMPIIO(t *testing.T) {
	cfg := base(ior.APIMPIIO, false)
	cfg.Collective = true
	checkResult(t, runCfg(t, cfg))
}

func TestCollectiveRequiresShared(t *testing.T) {
	cfg := base(ior.APIMPIIO, true)
	cfg.Collective = true
	tb := cluster.New(cluster.Small())
	tb.Run(func(p *sim.Proc) {
		env, err := ior.NewEnv(p, tb, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ior.Run(p, env, cfg); err == nil {
			t.Error("collective FPP accepted")
		}
	})
}

func TestObjectClassesProduceDifferentLayouts(t *testing.T) {
	for _, class := range []placement.ClassID{placement.S1, placement.SX} {
		cfg := base(ior.APIDFS, true)
		cfg.Class = class
		checkResult(t, runCfg(t, cfg))
	}
}

func TestMultipleSegments(t *testing.T) {
	cfg := base(ior.APIDFS, false)
	cfg.Segments = 3
	res := runCfg(t, cfg)
	if res.VerifyErrors != 0 {
		t.Fatalf("verify errors with segments: %d", res.VerifyErrors)
	}
	if res.TotalBytes != int64(res.Ranks)*3*4<<20 {
		t.Fatalf("total bytes = %d", res.TotalBytes)
	}
}

func TestIterationsAggregateStats(t *testing.T) {
	cfg := base(ior.APIDFS, true)
	cfg.Iterations = 3
	cfg.Verify = false
	res := runCfg(t, cfg)
	if len(res.Write.Times) != 3 || len(res.Read.Times) != 3 {
		t.Fatalf("iteration counts: %d/%d", len(res.Write.Times), len(res.Read.Times))
	}
	if res.Write.MaxGiBs < res.Write.MinGiBs {
		t.Fatal("max < min")
	}
	if res.Write.MeanGiBs > res.Write.MaxGiBs || res.Write.MeanGiBs < res.Write.MinGiBs {
		t.Fatalf("mean %v outside [min %v, max %v]", res.Write.MeanGiBs, res.Write.MinGiBs, res.Write.MaxGiBs)
	}
}

func TestWriteOnlyAndReadOnly(t *testing.T) {
	tb := cluster.New(cluster.Small())
	tb.Run(func(p *sim.Proc) {
		env, err := ior.NewEnv(p, tb, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		cfg := base(ior.APIDFS, true)
		cfg.DoRead = false
		res, err := ior.Run(p, env, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if len(res.Read.Times) != 0 || len(res.Write.Times) != 1 {
			t.Errorf("phases: write=%d read=%d", len(res.Write.Times), len(res.Read.Times))
		}
	})
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []ior.Config{
		{API: ior.APIDFS}, // no sizes
		{API: ior.APIDFS, BlockSize: 100, TransferSize: 64},     // not a multiple
		{API: "NFS", BlockSize: 1 << 20, TransferSize: 1 << 20}, // unknown API
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDFuseAPIsSlowerThanDFS(t *testing.T) {
	// The paper's headline interface ordering at small scale: DFS >= MPIIO
	// over dfuse > HDF5 over dfuse (for file-per-process).
	cfg := base(ior.APIDFS, true)
	cfg.Verify = false
	dfsRes := runCfg(t, cfg)
	cfg.API = ior.APIHDF5
	hdf5Res := runCfg(t, cfg)
	if hdf5Res.Write.MaxGiBs >= dfsRes.Write.MaxGiBs {
		t.Errorf("HDF5 write %.2f >= DFS write %.2f", hdf5Res.Write.MaxGiBs, dfsRes.Write.MaxGiBs)
	}
	if hdf5Res.Read.MaxGiBs >= dfsRes.Read.MaxGiBs {
		t.Errorf("HDF5 read %.2f >= DFS read %.2f", hdf5Res.Read.MaxGiBs, dfsRes.Read.MaxGiBs)
	}
}

func TestResultString(t *testing.T) {
	res := runCfg(t, base(ior.APIDFS, true))
	s := res.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("summary too short: %q", s)
	}
}

func TestRandomOffsetsVerified(t *testing.T) {
	cfg := base(ior.APIDFS, true)
	cfg.RandomOffsets = true
	cfg.Segments = 2
	res := runCfg(t, cfg)
	if res.VerifyErrors != 0 {
		t.Fatalf("verify errors with random offsets: %d", res.VerifyErrors)
	}
}

func TestRandomOffsetsSharedFile(t *testing.T) {
	cfg := base(ior.APIPosix, false)
	cfg.RandomOffsets = true
	checkResult(t, runCfg(t, cfg))
}

func TestRandomWithCollectiveRejected(t *testing.T) {
	cfg := base(ior.APIMPIIO, false)
	cfg.Collective = true
	cfg.RandomOffsets = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("random+collective accepted")
	}
}

// TestVerifyDoesNotChangeTiming pins the geometry-only write path: with
// Verify off every write reaches the store without bytes and every read
// materializes nothing, and the simulated time of both phases must match
// the verified run — which moves real bytes and checks them — exactly, on
// every API and layout (HDF5 file-per-process runs through the data sieve,
// shared HDF5 without it; MPI-I/O also collectively).
func TestVerifyDoesNotChangeTiming(t *testing.T) {
	type variant struct {
		name string
		cfg  ior.Config
	}
	var variants []variant
	for _, api := range []ior.API{ior.APIDFS, ior.APIPosix, ior.APIMPIIO, ior.APIHDF5} {
		for _, fpp := range []bool{true, false} {
			layout := "shared"
			if fpp {
				layout = "fpp"
			}
			variants = append(variants, variant{string(api) + "/" + layout, base(api, fpp)})
		}
	}
	coll := base(ior.APIMPIIO, false)
	coll.Collective = true
	variants = append(variants, variant{"MPIIO/collective", coll})
	// Transfers smaller than the sieve window and misaligned with it: every
	// window is loaded, partly written and flushed.
	sieved := base(ior.APIHDF5, true)
	sieved.BlockSize, sieved.TransferSize = 768<<10, 96<<10
	variants = append(variants, variant{"HDF5/fpp/sub-window", sieved})

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			verified := runCfg(t, v.cfg)
			if verified.VerifyErrors != 0 {
				t.Fatalf("verify errors: %d", verified.VerifyErrors)
			}
			cfg := v.cfg
			cfg.Verify = false
			unverified := runCfg(t, cfg)
			for _, ph := range []struct {
				name string
				a, b ior.Stats
			}{{"write", verified.Write, unverified.Write}, {"read", verified.Read, unverified.Read}} {
				if ph.a.MaxGiBs != ph.b.MaxGiBs || ph.a.Times[0] != ph.b.Times[0] {
					t.Errorf("%s: verified %v GiB/s in %v, unverified %v GiB/s in %v",
						ph.name, ph.a.MaxGiBs, ph.a.Times[0], ph.b.MaxGiBs, ph.b.Times[0])
				}
			}
		})
	}
}

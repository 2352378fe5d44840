package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"daosim/internal/bench"
	"daosim/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden CSV fixtures")

// TestQuickCSVGolden pins the figures' CSV output against committed
// fixtures, so cache- and kernel-refactors cannot silently drift results: a
// deliberate physics change must regenerate the fixtures with -update (and
// bump sim.KernelVersion to invalidate caches).
func TestQuickCSVGolden(t *testing.T) {
	study := func(run func(bench.Options) (*core.Study, error)) func(bench.Options) (string, error) {
		return func(o bench.Options) (string, error) {
			st, err := run(o)
			if err != nil {
				return "", err
			}
			return st.CSV(), nil
		}
	}
	cases := []struct {
		name string
		file string
		run  func(bench.Options) (string, error)
	}{
		{"figure1", "figure1_quick.csv", study(bench.Figure1)},
		{"figure2", "figure2_quick.csv", study(bench.Figure2)},
		{"fault", "fault_quick.csv", func(o bench.Options) (string, error) {
			fss, err := bench.FaultGrid(o)
			if err != nil {
				return "", err
			}
			return bench.FaultCSV(fss), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run(bench.At(bench.Quick))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (rerun with -update to generate)", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from the golden fixture.\nIf the physics change is deliberate, bump sim.KernelVersion and rerun with -update.\n--- got ---\n%s--- want ---\n%s",
					tc.name, got, want)
			}
		})
	}
}

// TestQuickFigure1ShutdownSeed pins `figures -quick -fig 1 -seed
// 2734897969682603369`, a run whose testbed shutdown once landed a raft
// datagram in an already closed server mailbox and panicked the drain.
func TestQuickFigure1ShutdownSeed(t *testing.T) {
	opts := bench.At(bench.Quick)
	opts.Seed = 2734897969682603369
	st, err := bench.Figure1(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st.Series {
		for _, pt := range s.Points {
			if pt.Err != "" {
				t.Errorf("%s at %d nodes: %s", s.Variant.Label, pt.Nodes, pt.Err)
			}
		}
	}
}

// The -cache / -cache-dir flag matrix is covered by TestOpen in
// internal/cache, which both commands share via cache.Open.

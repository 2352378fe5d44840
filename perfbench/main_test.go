package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"daosim/internal/core"
)

// tinySize shrinks every workload so a run takes seconds. The grid is too
// small for the paper's claims, so they are not checked.
var tinySize = size{
	nodes: []int{1, 2}, ppn: 2, block: 1 << 20, transfer: 256 << 10,
	warmBlock: 1 << 20, warmTransfer: 256 << 10,
	fleetConfigs: 2, fleetBlock: 1 << 20, fleetTransfer: 256 << 10,
	breakdownPaper: 1, breakdownFleet: 1,
	probeOps: 4, probeXfer: 256 << 10,
	setups: 2,
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile pins the metric tables to BENCHMARK.json
// and every workload it lists to one perfbench runs.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		if len(defs) != len(want) {
			t.Errorf("%s: perfbench defines %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(want))
		}
		for _, d := range defs {
			if u, ok := want[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s [%s] is not in BENCHMARK.json with that unit", kind, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which perfbench does not run", w.Name)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the run passes its own checks and prints every metric the
// mode promises, with its unit, as one JSON line.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				res, err := execute(options{
					w: w, sz: tinySize, seed: 7, seconds: time.Millisecond,
					trace: trace, traceDir: t.TempDir(), log: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run failed its checks: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back map[string]json.RawMessage
				if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
					t.Fatalf("result line %s: want exactly correct, attempted, failed, metrics", line)
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s [%s] missing or mislabelled: %+v", d.name, d.unit, m)
					}
				}
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestCheckerRejectsTamperedStudy feeds the checker a study whose one point
// differs from the in-process run, one whose point failed, and a cold
// batch that hit the cache; each must count as failed.
func TestCheckerRejectsTamperedStudy(t *testing.T) {
	cfgs := paperConfigs(tinySize, 3, 0)
	ref, err := reference(cfgs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() []*core.Study {
		got, err := reference(cfgs, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	r := &run{w: workloads[0], sz: tinySize}
	points := countPoints(ref)

	good := batch{studies: fresh(), points: points, misses: points}
	if bad, err := r.check(&good, ref); err != nil || bad != 0 {
		t.Fatalf("untampered batch rejected: %d bad, %v", bad, err)
	}

	tampered := fresh()
	tampered[1].Series[2].Points[1].ReadGiBs += 0.001
	b := batch{studies: tampered, points: points, misses: points}
	if bad, err := r.check(&b, ref); err == nil || bad == 0 {
		t.Errorf("tampered bandwidth accepted")
	}

	failed := fresh()
	failed[0].Series[0].Points[0].Err = "engine lost"
	b = batch{studies: failed, points: points, misses: points}
	if bad, err := r.check(&b, ref); err == nil || bad == 0 {
		t.Errorf("failed point accepted")
	}

	b = batch{studies: fresh(), points: points, hits: 1, misses: points - 1}
	if bad, err := r.check(&b, ref); err == nil || !strings.Contains(err.Error(), "hit the cache") || bad != points {
		t.Errorf("cold batch with a cache hit accepted: %d bad, %v", bad, err)
	}
}

// TestStackProbesRepeat: the probes' virtual times are properties of the
// program, not of the host, so two passes agree exactly. Their allocations
// agree to within one object per operation: the runtime's own allocations
// are held off (no collector, one thread, a first pass for one-time
// set-up), but Go map growth depends on each map's random hash seed. A
// -race build allocates on its own, so it checks virtual times only.
func TestStackProbesRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ops, xfer = 4, 256 << 10
	var passes [3][]layerProbe
	for i := range passes {
		var err error
		if passes[i], err = stackProbes(ops, xfer); err != nil {
			t.Fatal(err)
		}
	}
	a, b := passes[1], passes[2]
	if len(a) != len(stackLayers) || len(b) != len(a) {
		t.Fatalf("probed %d and %d layers, want %d", len(a), len(b), len(stackLayers))
	}
	for i := range a {
		if a[i].name != stackLayers[i] {
			t.Errorf("layer %d is %s, want %s", i, a[i].name, stackLayers[i])
		}
		for _, ph := range []struct {
			name string
			x, y layerCost
		}{{"write", a[i].write, b[i].write}, {"read", a[i].read, b[i].read}} {
			if ph.x.virtualUS != ph.y.virtualUS {
				t.Errorf("%s %s: virtual %v vs %v us per op", a[i].name, ph.name, ph.x.virtualUS, ph.y.virtualUS)
			}
			if !raceEnabled && (math.Abs(ph.x.allocs-ph.y.allocs) > 1 || math.Abs(ph.x.allocKB-ph.y.allocKB) > 1) {
				t.Errorf("%s %s: %v vs %v allocations, %v vs %v KB per op", a[i].name, ph.name,
					ph.x.allocs, ph.y.allocs, ph.x.allocKB, ph.y.allocKB)
			}
		}
	}
}

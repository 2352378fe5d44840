// Command figures regenerates every figure in the paper's evaluation
// section (Fig. 1 file-per-process and Fig. 2 shared-file, read and write
// panels), runs the machine-checked versions of the paper's qualitative
// claims, and optionally runs the ablation experiments from DESIGN.md.
// Independent sweep points fan out across cores; -parallel bounds the pool
// without changing any measured number.
//
// Completed sweep points can be memoized through a content-addressed cache
// (see internal/cache): -cache enables it with a persistent disk tier under
// ~/.daosim/cache, -cache-dir moves that tier (and implies -cache), and a
// warm rerun replays byte-identical figures without simulating, reporting
// its hit rate on exit.
//
// With -server, the study grids execute on a daosd study server
// (internal/studysvc) instead of in-process: points stream back as they
// complete, output stays byte-identical, and caching (including the hit
// ledger printed on exit) is the server's.
//
//	figures                 # both figures, full node sweep, claim checks
//	figures -quick          # reduced sweep (CI-sized)
//	figures -fig 1          # only Figure 1
//	figures -fig fault      # the fault-injection grid (kill/rebuild/restart)
//	figures -parallel 4     # at most 4 concurrent sweep points
//	figures -ablations      # also run A1..A4
//	figures -csv out.csv    # dump the raw series
//	figures -cache          # memoize points under ~/.daosim/cache
//	figures -cache-dir .c   # memoize points under ./.c
//	figures -cache-peer http://h0:9464   # also consult h0's shared cache tier
//	figures -server :9464   # run the sweeps through a daosd server
//	figures -cpuprofile cpu.out -memprofile mem.out   # profile the run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"daosim/internal/bench"
	"daosim/internal/cache"
	"daosim/internal/profile"
	"daosim/internal/studysvc"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced node sweep")
		fig       = flag.String("fig", "0", "run only this figure (1, 2, or fault); 0 = both paper figures")
		ablations = flag.Bool("ablations", false, "also run ablation experiments A1..A4")
		csvPath   = flag.String("csv", "", "write raw series CSV to this file")
		parallel  = flag.Int("parallel", 0, "max concurrent sweep points (0 = all cores, 1 = sequential)")
		seed      = flag.Uint64("seed", 0, "study seed (0 = testbed default)")
		cacheOn   = flag.Bool("cache", false, "memoize sweep points (disk tier under ~/.daosim/cache unless -cache-dir overrides)")
		cacheDir  = flag.String("cache-dir", "", "on-disk cache tier directory (implies -cache; explicitly empty = memory-only)")
		cacheMax  = flag.Int64("cache-max-bytes", 0, "disk cache tier byte budget; least-recently-used entries are evicted above it (0 = unbounded)")
		cachePeer = flag.String("cache-peer", "", "peer daosd URL whose cache joins the stack as a remote tier (enables caching)")
		server    = flag.String("server", "", "run study sweeps through the daosd server at this address (host:port) instead of in-process")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	flag.Parse()
	stopProfile, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			log.Print(err)
		}
	}()
	opts := bench.Options{Parallelism: *parallel, Seed: *seed}
	if *quick {
		opts.Scale = bench.Quick
	} else {
		opts.Scale = bench.Full
	}

	var pointCache *cache.Cache
	var client *studysvc.Client
	if *server != "" {
		// Sweeps execute on the server, where -parallel sized its pool and
		// its own -cache flags govern memoization; a local cache would
		// never be consulted, so passing both is a contradiction worth
		// refusing rather than silently ignoring.
		if *cacheOn || cache.FlagPassed("cache-dir") || *cacheMax != 0 || *cachePeer != "" {
			log.Fatal("figures: -cache/-cache-dir/-cache-max-bytes/-cache-peer configure the in-process runner; with -server, caching is configured on daosd")
		}
		if *parallel != 0 {
			// Not fatal: -ablations still runs its native-array points on
			// the local pool, where the flag does apply.
			fmt.Fprintln(os.Stderr, "figures: note: with -server, grid sweeps use daosd's -parallel pool; the local -parallel only bounds in-process work (native-array ablation points)")
		}
		client = studysvc.NewClient(*server)
		opts.Runner = client
	} else {
		var err error
		pointCache, err = cache.Open(*cacheOn, cache.FlagPassed("cache-dir"), *cacheDir, *cachePeer, *cacheMax)
		if err != nil {
			log.Fatal(err)
		}
		opts.Cache = pointCache
	}

	csv, err := bench.RunFigures(opts, *fig, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}

	if *ablations {
		runAblations(opts)
	}

	if err := bench.WriteCSV(*csvPath, csv, os.Stdout); err != nil {
		log.Fatal(err)
	}
	if pointCache != nil {
		fmt.Println(pointCache.Stats())
	}
	if client != nil {
		fmt.Println(client.Ledger())
	}
}

func runAblations(opts bench.Options) {
	fmt.Println("=== Ablation A1: object class sweep at peak contention ===")
	a1, err := bench.AblationObjectClass(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a1.Table(true))
	fmt.Println(a1.Table(false))

	fmt.Println("=== Ablation A2: transfer size sweep (daos S2) ===")
	a2, err := bench.AblationTransferSize(opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range a2 {
		fmt.Printf("  t=%8d KiB  write %7.2f GiB/s  read %7.2f GiB/s\n",
			pt.Transfer>>10, pt.WriteGiBs, pt.ReadGiBs)
	}
	fmt.Println()

	fmt.Println("=== Ablation A3: DFuse overhead decomposition ===")
	a3, err := bench.AblationFuseOverhead(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a3.Table(true))
	fmt.Println(a3.Table(false))

	fmt.Println("=== Ablation A4: collective vs independent MPI-I/O (shared file) ===")
	a4, err := bench.AblationCollective(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a4.Table(true))
	fmt.Println(a4.Table(false))

	fmt.Println("=== Future work (paper SV): native DAOS array API vs DFS ===")
	fw, err := bench.FutureNativeArray(opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range fw {
		fmt.Printf("  nodes=%2d  native w/r %7.2f/%7.2f GiB/s   dfs w/r %7.2f/%7.2f GiB/s\n",
			pt.Nodes, pt.NativeWriteGiBs, pt.NativeReadGiBs, pt.DFSWriteGiBs, pt.DFSReadGiBs)
	}
}

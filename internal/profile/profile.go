// Package profile backs the -cpuprofile and -memprofile flags of the
// commands with runtime/pprof, so a hot spot can be named from a real run:
//
//	figures -quick -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
//	go tool pprof -sample_index=alloc_space -top mem.out
package profile

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath when it is non-empty. The returned
// stop ends the CPU profile and, when memPath is non-empty, writes the
// allocation profile (every allocation since the program started) there.
// Call stop once, when the work being profiled is done.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeAllocs(memPath))
		}
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		return nil
	}, nil
}

// writeAllocs writes the allocation profile to path.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // bring the in-use figures up to date
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

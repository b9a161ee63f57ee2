package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// startProfile starts the process CPU profile into path; the caller stops
// it with pprof.StopCPUProfile and closes the file.
func startProfile(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// cpuModules are the buckets cpu_share.<module> reports, always all of them.
var cpuModules = []string{"sim", "overlay", "core", "cq", "chord", "bitkey", "wirecodec", "load", "gc", "scheduler", "syscall", "bench", "other"}

// foldProfile folds the CPU profile's stacks with the toolchain's offline
// `go tool pprof -traces` into cpu_share.<module>: each sample goes to the
// garbage collector, a syscall or the scheduler when its stack shows one,
// otherwise to the repository module of its innermost frame.
func foldProfile(m metricSet, path string) error {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares, total := foldTraces(out)
	for _, mod := range cpuModules {
		m.set("cpu_share."+mod, ratio(shares[mod], total), "ratio")
	}
	m.set("cpu_profile_s", total, "s")
	return nil
}

// foldTraces parses `pprof -traces` text: blocks separated by dashed lines,
// each "<value> <leaf frame>" followed by one caller frame per line.
func foldTraces(text []byte) (map[string]float64, float64) {
	shares := map[string]float64{}
	var total float64
	var stack []string
	var value float64
	flush := func() {
		if len(stack) > 0 {
			shares[classify(stack)] += value
			total += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header lines: "File:", "Type:", ...
		}
		if len(stack) == 0 && len(fields) >= 2 {
			if d, err := time.ParseDuration(fields[0]); err == nil {
				value = d.Seconds()
				stack = append(stack, fields[1])
			}
			continue
		}
		if len(stack) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	return shares, total
}

// classify names the bucket of one stack, innermost frame first.
func classify(stack []string) string {
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.gcAssistAlloc"),
			strings.HasPrefix(f, "runtime.bgsweep"), strings.HasPrefix(f, "runtime.bgscavenge"),
			strings.HasPrefix(f, "runtime.gcStart"), strings.HasPrefix(f, "runtime.markroot"),
			f == "runtime.gcDrain", f == "runtime.scanobject":
			return "gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "syscall.") || strings.HasPrefix(f, "internal/runtime/syscall.") ||
			strings.HasPrefix(f, "runtime/internal/syscall.") {
			return "syscall"
		}
	}
	for _, f := range stack {
		switch f {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.goschedImpl",
			"runtime.netpoll", "runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.stopm",
			"runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.usleep", "runtime.osyield":
			return "scheduler"
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, "clash/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			for _, known := range cpuModules {
				if mod == known {
					return mod
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "other"
}

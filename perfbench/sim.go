package main

import (
	"fmt"
	"runtime/pprof"
	"time"

	"clash/internal/sim"
)

const (
	simScenario = "split-merge"
	// simNodes sizes each replay to a few seconds of wall time, so a window
	// holds enough replays for its medians.
	simNodes = 500
	// simSetups is how many times a run builds the scenario; setup_s is the
	// median. A build takes tens of µs, so it takes many for a steady median.
	simSetups = 1001
)

// simReplay is one timed sim.Run.
type simReplay struct {
	res  *sim.Result
	wall time.Duration
	cpu  time.Duration
}

// simSeed derives the scenario seed of the i-th replay of a run.
func simSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func replaySim(out *outcome, seed int64) (simReplay, error) {
	sc, err := sim.Named(simScenario, simNodes, seed)
	if err != nil {
		return simReplay{}, err
	}
	c0, t0 := cpuTime(), time.Now()
	res, err := sim.Run(sc)
	r := simReplay{res: res, wall: time.Since(t0), cpu: cpuTime() - c0}
	if err != nil {
		return r, err
	}
	t := res.Totals
	out.attempted += int64(t.PacketsOK + t.PublishErrors)
	undelivered := int64(max(t.MatchesInline-t.MatchesDelivered, 0))
	out.failed += int64(t.PublishErrors) + undelivered
	out.check(len(res.Violations) == 0, "sim seed %d: violations %v", seed, res.Violations)
	out.check(res.CoverageComplete && res.CoverageOverlaps == 0, "sim seed %d: coverage complete=%v overlaps=%d", seed, res.CoverageComplete, res.CoverageOverlaps)
	out.check(len(res.LostCQs) == 0 && res.CQSurviving == res.CQRegistered, "sim seed %d: %d of %d queries survive, lost %v", seed, res.CQSurviving, res.CQRegistered, res.LostCQs)
	out.check(t.PublishErrors == 0 && undelivered == 0, "sim seed %d: %d publish errors, %d matches not delivered", seed, t.PublishErrors, undelivered)
	return r, nil
}

// replayUntil replays successive seeds until d has passed (at least once).
func replayUntil(out *outcome, seed int64, first int, d time.Duration) ([]simReplay, error) {
	var rs []simReplay
	start := time.Now()
	for i := first; len(rs) == 0 || time.Since(start) < d; i++ {
		r, err := replaySim(out, simSeed(seed, i))
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// runSim runs the split-merge scenario of the deterministic simulator: set-up
// builds the scenario; the window replays it at simNodes nodes on successive
// seeds.
func runSim(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	m := out.metrics
	setupTimes := make([]float64, simSetups)
	for i := range setupTimes {
		t0 := time.Now()
		if _, err := sim.Named(simScenario, simNodes, simSeed(cfg.seed, i)); err != nil {
			return nil, err
		}
		setupTimes[i] = time.Since(t0).Seconds()
	}
	m.set("setup_s", median(setupTimes), "s")

	if !cfg.traced {
		rs, err := replayUntil(out, cfg.seed, 0, cfg.window)
		if err != nil {
			return nil, err
		}
		simEndToEnd(m, rs)
		return out, nil
	}

	half := cfg.window / 2
	before := readProc()
	plain, err := replayUntil(out, cfg.seed, 0, half)
	if err != nil {
		return nil, err
	}
	d := before.to(readProc())
	simEndToEnd(m, plain)
	prof, err := startProfile(cfg.artifact("-cpu.pprof"))
	if err != nil {
		return nil, err
	}
	sampler := startGoroutineSampler(time.Millisecond)
	// The traced half replays the same seeds, so the overhead ratio compares
	// identical work.
	var traced []simReplay
	for i := range plain {
		r, err := replaySim(out, simSeed(cfg.seed, i))
		if err != nil {
			pprof.StopCPUProfile()
			prof.Close()
			sampler.Stop()
			return nil, err
		}
		traced = append(traced, r)
	}
	m.set("runtime.goroutines_max", float64(sampler.Stop()), "count")
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	var plainWall, tracedWall time.Duration
	for i := range plain {
		plainWall += plain[i].wall
		tracedWall += traced[i].wall
	}
	m.set("trace.overhead_ratio", ratio(tracedWall.Seconds(), plainWall.Seconds()), "ratio")

	var packets, calls float64
	for _, r := range plain {
		packets += float64(r.res.Totals.PacketsOK)
		calls += float64(r.res.Totals.Calls)
	}
	t := plain[0].res.Totals
	m.set("sim.calls", float64(t.Calls), "count")
	m.set("sim.retries", float64(t.Retries), "count")
	m.set("sim.timeouts", float64(t.Timeouts), "count")
	m.set("sim.splits", float64(t.Splits), "count")
	m.set("sim.merges", float64(t.Merges), "count")
	m.set("sim.groups_accepted", float64(t.GroupsAccepted), "count")
	m.set("sim.packets_ok", float64(t.PacketsOK), "count")
	m.set("sim.matches_delivered", float64(t.MatchesDelivered), "count")
	m.set("sim.calls_per_wall_s", ratio(calls, plainWall.Seconds()), "1/s")
	m.set("sim.calls_per_op", ratio(calls, packets), "count")
	m.set("sim.run_s", plainWall.Seconds()/float64(len(plain)), "s")
	m.set("error_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	d.runtimeMetrics(m, packets)
	if err := foldProfile(m, cfg.artifact("-cpu.pprof")); err != nil {
		return nil, err
	}
	return out, nil
}

// simEndToEnd fills the end-to-end metrics of an untraced window of replays:
// medians over the replays, so one replay slowed by the machine does not
// decide the result.
func simEndToEnd(m metricSet, rs []simReplay) {
	var perS, cpuPer, walls []float64
	for _, r := range rs {
		packets := float64(r.res.Totals.PacketsOK)
		perS = append(perS, ratio(packets, r.wall.Seconds()))
		cpuPer = append(cpuPer, ratio(float64(r.cpu.Microseconds()), packets))
		walls = append(walls, r.wall.Seconds())
	}
	fmt.Printf("sim: %d replays of %s at %d nodes, wall s %.3f\n", len(rs), simScenario, simNodes, walls)
	m.set("publish_per_s", median(perS), "1/s")
	m.set("cpu_us_per_publish", median(cpuPer), "us")
	m.set("peak_mem_mb", peakRSSMB(), "MB")
	m.set("sim_run_s", median(walls), "s")
	m.set("sim_replays", float64(len(rs)), "count")
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vitis/internal/stats"
	"vitis/internal/telemetry"
)

const (
	// simSetups is the least number of set-ups a sim run times, and
	// simSetupTime the least time they take together; setup_s is their
	// median.
	simSetups    = 11
	simSetupTime = time.Second
	// liveSetups is the same for live-udp, whose set-up is much shorter.
	liveSetups = 15
	// traceDir receives the span files of traced runs.
	traceDir = ".bench_build/trace"
)

// benchSim repeats the simulation while another repetition is expected to
// fit in the budget (at least once) and reports medians. Every repetition
// sets up from scratch; a repetition whose protocol outcome differs from
// the first is a hard failure, since the simulator is deterministic. The
// operation counts are the first repetition's, so they depend on the seed
// alone and not on how many repetitions fit.
func benchSim(sh simShape, seed int64, budget time.Duration) (*result, error) {
	r := &result{}
	start := time.Now()
	var setups, runs, cpuPer []float64
	var setupTotal time.Duration
	var first *simOutcome
	var phases [len(phaseNames)]time.Duration
	for {
		t0 := time.Now()
		in, err := generateSim(sh, seed)
		if err != nil {
			return nil, err
		}
		w := buildSim(in, false)
		setupTotal += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
		c0, t1 := cpuTime(), time.Now()
		w.run()
		run := time.Since(t1)
		cpu := cpuTime() - c0
		o := w.outcome()
		runs = append(runs, run.Seconds())
		cpuPer = append(cpuPer, float64(cpu.Microseconds())/float64(o.v.delivered))
		phases = w.phase
		if first == nil {
			first = o
		} else if !o.same(first) {
			r.hard = append(r.hard, fmt.Sprintf("repetition %d reached a different protocol outcome than repetition 1", len(runs)))
		}
		if time.Since(start)+run > budget {
			break
		}
	}
	for len(setups) < simSetups || setupTotal < simSetupTime {
		t0 := time.Now()
		in, err := generateSim(sh, seed)
		if err != nil {
			return nil, err
		}
		buildSim(in, false)
		setupTotal += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	runS := stats.Percentile(runs, 50)
	r.attempted, r.failed = first.v.expected, first.v.failed()
	r.hard = append(r.hard, first.v.hardErrors()...)
	r.add("setup_s", stats.Percentile(setups, 50), "s")
	r.add("run_s", runS, "s")
	r.add("cpu_us_per_delivery", stats.Percentile(cpuPer, 50), "us")
	r.add("wire_bytes_per_delivery", float64(first.bytes)/float64(first.v.delivered), "B")
	r.add("hit_ratio", first.hit, "ratio")
	r.add("catchup_hit_ratio", catchUpRatio(first.v), "ratio")
	r.add("interested_notification_ratio", 1-first.overhead, "ratio")
	r.add("delay_hops_mean", first.delay, "hops")
	r.add("latency_p50_ms", msPercentile(first.latencies, 50), "ms")
	r.add("latency_p99_ms", msPercentile(first.latencies, 99), "ms")
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.add("peak_rss_mib", rss, "MiB")
	r.note("repetitions %d, set-ups %d, run_s per repetition %v", len(runs), len(setups), runs)
	r.note("engine events %d, %.0f per second of run_s", first.events, float64(first.events)/runS)
	r.note("phases of the last repetition: warmup %.2fs window %.2fs drain %.2fs catchup %.2fs",
		phases[0].Seconds(), phases[1].Seconds(), phases[2].Seconds(), phases[3].Seconds())
	describeVerdict(r, first.v, first.overhead, len(first.latencies))
	return r, nil
}

// traceSim runs the simulation once untraced and once traced. The traced
// run must reach exactly the untraced outcome; it supplies the span and
// message-kind figures, the untraced one the phase and runtime figures.
func traceSim(name string, sh simShape, seed int64) (*result, error) {
	r := &result{}
	in, err := generateSim(sh, seed)
	if err != nil {
		return nil, err
	}
	w := buildSim(in, false)
	m0, t0 := readRuntime(), time.Now()
	w.run()
	plain := time.Since(t0)
	m1 := readRuntime()
	o, phases := w.outcome(), w.phase

	in, err = generateSim(sh, seed)
	if err != nil {
		return nil, err
	}
	wt := buildSim(in, true)
	t1 := time.Now()
	wt.run()
	traced := time.Since(t1)
	ot := wt.outcome()
	if !ot.same(o) {
		r.hard = append(r.hard, "the traced run reached a different protocol outcome than the untraced run")
	}
	if sumBytes(&ot.kinds) != ot.bytes {
		r.hard = append(r.hard, "per-kind bytes do not sum to the network's bytes sent")
	}
	r.attempted, r.failed = ot.v.expected, ot.v.failed()
	r.hard = append(r.hard, o.v.hardErrors()...)
	r.hard = append(r.hard, ot.v.hardErrors()...)

	var l layers
	l.totals.add(&wt.tr.totals)
	l.kinds = ot.kinds
	l.events = ot.events
	l.phases = phases
	l.met = wt.met
	l.runtime = m1.sub(m0)
	l.deliveries = o.v.delivered
	l.overhead = (traced - plain).Seconds()
	l.report(r)
	path, err := writeSpans(traceDir, name+".spans", []*tracer{wt.tr})
	if err != nil {
		return nil, err
	}
	r.note("untraced run %.3fs, traced run %.3fs; %d spans written to %s, %d more counted but not kept",
		plain.Seconds(), traced.Seconds(), wt.tr.n, path, wt.tr.dropped)
	return r, nil
}

// benchLive times liveSetups set-ups (all but the last are closed unused)
// and runs the last one with a measured window of budget.
func benchLive(seed int64, budget time.Duration) (*result, error) {
	r := &result{}
	var setups []float64
	var c *liveCluster
	for k := 0; k < liveSetups; k++ {
		t0 := time.Now()
		in, err := generateLive(seed, budget)
		if err != nil {
			return nil, err
		}
		cl, err := buildLive(in, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < liveSetups-1 {
			cl.close()
		} else {
			c = cl
		}
	}
	run := c.run()
	o := c.outcome(run)
	r.attempted, r.failed = o.v.expected, o.v.failed()
	r.hard = o.v.hardErrors()
	win := run.winEnd.cpu - run.winStart.cpu
	r.add("setup_s", stats.Percentile(setups, 50), "s")
	r.add("run_s", run.wall.Seconds(), "s")
	r.add("cpu_us_per_delivery", float64(win.Microseconds())/float64(o.windowDeliveries), "us")
	r.add("wire_bytes_per_delivery", float64(run.winEnd.txBytes-run.winStart.txBytes)/float64(o.windowDeliveries), "B")
	r.add("hit_ratio", o.hit, "ratio")
	r.add("catchup_hit_ratio", catchUpRatio(o.v), "ratio")
	r.add("interested_notification_ratio", 1-o.overhead, "ratio")
	r.add("delay_hops_mean", o.delay, "hops")
	r.add("latency_p50_ms", stats.Percentile(o.latencies, 50), "ms")
	r.add("latency_p99_ms", stats.Percentile(o.latencies, 99), "ms")
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.add("peak_rss_mib", rss, "MiB")
	r.note("open loop: offered %.0f events/s, %d events scheduled over a %v window (settle %v, drain %v)",
		liveRate, len(c.in.sched), budget, liveSettle, liveDrain)
	r.note("generator lateness ms: p50 %.3f p99 %.3f max %.3f over %d publishes",
		stats.Percentile(o.late, 50), stats.Percentile(o.late, 99), stats.Percentile(o.late, 100), len(o.late))
	r.note("window: %.2fs CPU for %d first deliveries; process CPU load %.1f%% of %d CPUs",
		win.Seconds(), o.windowDeliveries, 100*win.Seconds()/c.in.window.Seconds()/float64(runtime.NumCPU()), runtime.NumCPU())
	r.note("inbox drops %d, transport tx dropped %d; engine events and inbox dispatches %d, %.0f per second",
		c.inboxDrops(), c.txDropped(), run.events, float64(run.events)/run.wall.Seconds())
	describeVerdict(r, o.v, o.overhead, len(o.latencies))
	return r, nil
}

// traceLive runs the live workload untraced and then traced, each with a
// measured window of budget. tracing.overhead_s is the difference in
// process CPU over the two windows, since a live run's wall time is fixed
// by its schedule.
func traceLive(seed int64, budget time.Duration) (*result, error) {
	r := &result{}
	var runs [2]liveRun
	var outs [2]*liveOutcome
	var cs [2]*liveCluster
	for k, traced := range []bool{false, true} {
		in, err := generateLive(seed, budget)
		if err != nil {
			return nil, err
		}
		c, err := buildLive(in, traced)
		if err != nil {
			return nil, err
		}
		runs[k] = c.run()
		outs[k] = c.outcome(runs[k])
		cs[k] = c
		r.hard = append(r.hard, outs[k].v.hardErrors()...)
	}
	c, run, o := cs[1], runs[1], outs[1]
	r.attempted, r.failed = o.v.expected, o.v.failed()

	var l layers
	var tracers []*tracer
	for _, ln := range c.nodes {
		l.totals.add(&ln.tr.totals)
		l.kinds.addAll(&ln.tnet.counts)
		tracers = append(tracers, ln.tr)
		u := ln.udp.Counters()
		l.datagrams += u.TxDatagrams
		l.frames += u.TxFrames
		l.txDropped += u.TxDropped
	}
	l.events = run.events
	l.phases = [len(phaseNames)]time.Duration{liveSettle, c.in.window, liveDrain, 0}
	l.met = c.met
	l.inboxDrops = c.inboxDrops()
	l.inboxDepthMax = run.inboxDepthMax
	l.late = o.late
	plain := runs[0]
	l.runtime = plain.winEnd.mem.sub(plain.winStart.mem)
	l.deliveries = outs[0].windowDeliveries
	l.overhead = ((run.winEnd.cpu - run.winStart.cpu) - (plain.winEnd.cpu - plain.winStart.cpu)).Seconds()
	l.report(r)
	path, err := writeSpans(traceDir, "live-udp.spans", tracers)
	if err != nil {
		return nil, err
	}
	r.note("window CPU untraced %.3fs, traced %.3fs; spans written to %s",
		(plain.winEnd.cpu - plain.winStart.cpu).Seconds(), (run.winEnd.cpu - run.winStart.cpu).Seconds(), path)
	return r, nil
}

func (c *liveCluster) inboxDrops() uint64 {
	var n uint64
	for _, ln := range c.nodes {
		n += ln.host.Counters().InboxDrops
	}
	return n
}

func (c *liveCluster) txDropped() uint64 {
	var n uint64
	for _, ln := range c.nodes {
		n += ln.udp.Counters().TxDropped
	}
	return n
}

// catchUpRatio is the delivery ratio of events owed to subscribers that
// were detached when they were published. With nobody detached nothing is
// owed, and 0/0 counts as complete, as in experiments.OfflineCatchUp.
func catchUpRatio(v verdict) float64 {
	if v.offlineExpected == 0 {
		return 1
	}
	return float64(v.offlineDelivered) / float64(v.offlineExpected)
}

func describeVerdict(r *result, v verdict, overhead float64, samples int) {
	r.note("operations %d: delivered %d, missed %d, duplicated %d (%d extra copies), catch-up owed %d delivered %d",
		v.expected, v.delivered, v.missed, v.duplicated, v.extraCopies, v.offlineExpected, v.offlineDelivered)
	r.note("traffic overhead (uninterested share of notifications, paper §IV) %.5f", overhead)
	r.note("latency samples %d", samples)
}

func sumBytes(k *kindCounts) uint64 {
	var s uint64
	for _, b := range k.bytes {
		s += b
	}
	return s
}

// layers gathers a traced run's per-layer figures.
type layers struct {
	totals     spanTotals
	kinds      kindCounts
	events     uint64
	phases     [len(phaseNames)]time.Duration
	met        *telemetry.NodeMetrics
	runtime    runtimeSnap // untraced run
	deliveries int         // untraced run
	overhead   float64

	datagrams, frames     uint64
	txDropped, inboxDrops uint64
	inboxDepthMax         int64
	late                  []float64
}

func (l *layers) report(r *result) {
	t := &l.totals
	for k := kind(0); k < kOther; k++ {
		name := kindNames[k]
		r.add(name+".msgs", float64(l.kinds.msgs[k]), "count")
		r.add(name+".bytes", float64(l.kinds.bytes[k]), "B")
		r.add(name+".handler.self_s", t.self[handlerSpan(k)].Seconds(), "s")
		r.add(name+".send.self_s", t.self[sendSpan(k)].Seconds(), "s")
	}
	var timers, sends time.Duration
	for _, p := range phaseSpans {
		timers += t.self[p]
	}
	for k := kind(0); k < numKinds; k++ {
		sends += t.self[sendSpan(k)]
	}
	r.add("simnet.timers.self_s", timers.Seconds(), "s")
	r.add("simnet.send.self_s", sends.Seconds(), "s")
	r.add("metrics.hook.self_s", t.self[spanHook].Seconds(), "s")
	r.add("simnet.events", float64(l.events), "count")
	for i, p := range phaseNames {
		r.add("simnet.phase."+p+"_s", l.phases[i].Seconds(), "s")
	}
	r.add("store.append.calls", float64(t.count[spanStoreAppend]), "count")
	r.add("store.append.self_s", t.self[spanStoreAppend].Seconds(), "s")
	r.add("store.read_range.calls", float64(t.count[spanStoreReadRange]), "count")
	r.add("store.read_range.self_s", t.self[spanStoreReadRange].Seconds(), "s")
	r.add("core.catchup.deliveries", float64(l.met.CatchUpDelivered.Value()), "count")
	r.add("core.replay.served", float64(l.met.ReplayServed.Value()), "count")
	r.add("core.dedup.duplicates", float64(l.met.Duplicates.Value()), "count")
	r.add("transport.send.calls", float64(t.count[spanTransportSend]), "count")
	r.add("transport.send.self_s", t.self[spanTransportSend].Seconds(), "s")
	r.add("transport.datagrams", float64(l.datagrams), "count")
	fpd := 0.0
	if l.datagrams > 0 {
		fpd = float64(l.frames) / float64(l.datagrams)
	}
	r.add("transport.frames_per_datagram", fpd, "ratio")
	r.add("transport.tx_dropped", float64(l.txDropped), "count")
	r.add("transport.host.inbox_drops", float64(l.inboxDrops), "count")
	r.add("transport.host.inbox_depth_max", float64(l.inboxDepthMax), "count")
	p50, p99 := 0.0, 0.0
	if len(l.late) > 0 {
		p50, p99 = stats.Percentile(l.late, 50), stats.Percentile(l.late, 99)
	}
	r.add("driver.publish_late_ms_p50", p50, "ms")
	r.add("driver.publish_late_ms_p99", p99, "ms")
	r.add("runtime.alloc_bytes_per_delivery", float64(l.runtime.alloc)/float64(l.deliveries), "B")
	r.add("runtime.gc_cycles", float64(l.runtime.gcs), "count")
	r.add("runtime.gc_pause_s", float64(l.runtime.pauseNs)/1e9, "s")
	r.add("tracing.overhead_s", l.overhead, "s")
	if l.kinds.msgs[kOther] > 0 {
		r.note("%d messages of no known kind (%d bytes)", l.kinds.msgs[kOther], l.kinds.bytes[kOther])
	}
}

// runtimeSnap is a reading of the Go runtime's allocation and GC totals.
type runtimeSnap struct {
	alloc, gcs, pauseNs uint64
}

func readRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSnap{alloc: m.TotalAlloc, gcs: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

func (s runtimeSnap) sub(o runtimeSnap) runtimeSnap {
	return runtimeSnap{alloc: s.alloc - o.alloc, gcs: s.gcs - o.gcs, pauseNs: s.pauseNs - o.pauseNs}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

package main

import (
	"math"
	"testing"
	"time"

	"vitis/internal/experiments"
	"vitis/internal/workload"
)

// tinyControl is sim-control's shape at a size that runs in about a second.
var tinyControl = simShape{
	nodes: 64, topics: 200, subsPerNode: 10, buckets: 20,
	pattern: workload.HighCorrelation, events: 60,
	warmup: 40, window: 20, drain: 15,
}

// tinyData is sim-data's shape, offline cohort and stores included.
var tinyData = simShape{
	nodes: 64, topics: 40, subsPerNode: 5, buckets: 20,
	pattern: workload.Random, alpha: 1, events: 600,
	warmup: 40, window: 20, drain: 15,
	offlineFrac: 1.0 / 8, leaveRound: 25,
}

func runTiny(t *testing.T, sh simShape, seed int64, traced bool) *simOutcome {
	t.Helper()
	in, err := generateSim(sh, seed)
	if err != nil {
		t.Fatal(err)
	}
	w := buildSim(in, traced)
	w.run()
	return w.outcome()
}

func TestSameSeedSameOutcome(t *testing.T) {
	for name, sh := range map[string]simShape{"control": tinyControl, "data": tinyData, "recovery": simRecovery} {
		a := runTiny(t, sh, 7, true)
		b := runTiny(t, sh, 7, true)
		if !a.same(b) {
			t.Errorf("%s: outcomes differ: %+v vs %+v", name, a, b)
		}
		if a.kinds != b.kinds {
			t.Errorf("%s: per-kind counts differ:\n%+v\n%+v", name, a.kinds, b.kinds)
		}
		if plain := runTiny(t, sh, 7, false); !plain.same(a) {
			t.Errorf("%s: traced and untraced outcomes differ", name)
		}
		if errs := a.v.hardErrors(); len(errs) > 0 {
			t.Errorf("%s: hard failures: %v", name, errs)
		}
	}
}

func TestKindBytesSumToBytesSent(t *testing.T) {
	for name, sh := range map[string]simShape{"control": tinyControl, "data": tinyData, "recovery": simRecovery} {
		o := runTiny(t, sh, 3, true)
		if got := sumBytes(&o.kinds); got != o.bytes {
			t.Errorf("%s: per-kind bytes sum to %d, network sent %d", name, got, o.bytes)
		}
		if o.kinds.msgs[kOther] != 0 {
			t.Errorf("%s: %d messages of no known kind", name, o.kinds.msgs[kOther])
		}
	}
	if o := runTiny(t, tinyData, 3, true); o.kinds.msgs[kCatchUp] == 0 {
		t.Error("the data shape sent no catch-up messages")
	}
	if o := runTiny(t, simRecovery, 3, true); o.kinds.msgs[kReplay] == 0 {
		t.Error("the recovery shape sent no replay messages")
	}
}

// TestMatchesExperimentsRun pins the runner to the code behind the paper
// tables: on a sim-control-shaped configuration it must reproduce
// experiments.Run's hit ratio, overhead, delay, bytes and event count.
func TestMatchesExperimentsRun(t *testing.T) {
	const seed = 5
	in, err := generateSim(tinyControl, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Run(experiments.RunConfig{
		System:        experiments.Vitis,
		Subs:          in.subs,
		Events:        tinyControl.events,
		WarmupRounds:  tinyControl.warmup,
		MeasureRounds: tinyControl.window,
		DrainRounds:   tinyControl.drain,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		got := runTiny(t, tinyControl, seed, traced)
		if got.hit != want.HitRatio || got.overhead != want.Overhead || got.delay != want.AvgDelay {
			t.Errorf("traced=%v: hit/overhead/delay %v/%v/%v, experiments.Run %v/%v/%v",
				traced, got.hit, got.overhead, got.delay, want.HitRatio, want.Overhead, want.AvgDelay)
		}
		if got.bytes != want.BytesOnWire || got.events != want.EventsExecuted {
			t.Errorf("traced=%v: bytes/events %d/%d, experiments.Run %d/%d",
				traced, got.bytes, got.events, want.BytesOnWire, want.EventsExecuted)
		}
	}
}

func TestCheckClassifiesSyntheticLog(t *testing.T) {
	exp := []expectation{
		{online: []int32{1, 2, 3}},                // node 3 misses it
		{online: []int32{1, 2}},                   // node 2 gets it twice
		{online: []int32{4}, offline: []int32{5}}, // node 6 is not subscribed
	}
	log := []delivery{
		{event: 0, node: 2, at: 5}, {event: 0, node: 1, at: 4},
		{event: 1, node: 1, at: 1}, {event: 1, node: 2, at: 2}, {event: 1, node: 2, at: 9},
		{event: 2, node: 4, at: 1}, {event: 2, node: 5, at: 30}, {event: 2, node: 6, at: 3},
	}
	v := check(exp, log)
	want := verdict{
		expected: 7, delivered: 6, missed: 1, duplicated: 1, extraCopies: 1,
		spurious: 1, offlineExpected: 1, offlineDelivered: 1,
	}
	if v != want {
		t.Fatalf("verdict %+v, want %+v", v, want)
	}
	if v.failed() != 2 {
		t.Errorf("failed %d, want 2 (one miss, one duplicate)", v.failed())
	}
	if errs := v.hardErrors(); len(errs) != 1 {
		t.Errorf("hard errors %v, want exactly the spurious delivery", errs)
	}
	// The first delivery of each operation leads its group.
	if log[0].node != 1 || log[3].at != 2 {
		t.Errorf("log not sorted by event, node, time: %+v", log)
	}

	v = check(exp[:1], []delivery{{event: -1, node: 1}, {event: 0, node: 1}, {event: 0, node: 2}, {event: 0, node: 3}})
	if v.unpublished != 1 || v.missed != 0 || len(v.hardErrors()) != 1 {
		t.Errorf("unpublished event: verdict %+v, hard %v", v, v.hardErrors())
	}
}

// TestLiveShort runs the live stack for a short window and checks its
// bookkeeping: no hard failure, every event scheduled was published, and
// latency and lateness were measured.
func TestLiveShort(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets for about ten seconds")
	}
	in, err := generateLive(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildLive(in, true)
	if err != nil {
		t.Fatal(err)
	}
	run := c.run()
	o := c.outcome(run)
	if errs := o.v.hardErrors(); len(errs) > 0 {
		t.Fatalf("hard failures: %v", errs)
	}
	if len(o.late) != len(in.sched) {
		t.Errorf("%d publishes fired, %d scheduled", len(o.late), len(in.sched))
	}
	if len(o.latencies) == 0 || o.v.delivered == 0 {
		t.Errorf("no deliveries measured: %+v", o.v)
	}
	for _, l := range o.late {
		if l < 0 {
			t.Fatalf("a publish fired %.3fms before it was due", -l)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(time.Now())
	tr.begin(spanPhaseWindow)
	tr.begin(handlerSpan(kNotification))
	tr.begin(sendSpan(kNotification))
	time.Sleep(time.Millisecond)
	tr.end()
	tr.begin(spanHook)
	tr.end()
	tr.end()
	tr.end()
	tt := &tr.totals
	var self time.Duration
	for _, d := range tt.self {
		if d < 0 {
			t.Fatalf("negative self time: %v", tt.self)
		}
		self += d
	}
	if root := tt.total[spanPhaseWindow]; self != root {
		t.Errorf("self times sum to %v, root span lasted %v", self, root)
	}
	if tt.count[spanHook] != 1 || tt.self[sendSpan(kNotification)] < time.Millisecond {
		t.Errorf("totals %+v", tt)
	}
	if tr.n != 4 || tr.at(3).parent != 1 || tr.at(1).parent != 0 || tr.at(0).parent != -1 {
		t.Errorf("stored parents wrong: n=%d", tr.n)
	}
}

func TestMsPercentileInterpolatesInsideTheBin(t *testing.T) {
	ms := []float64{10, 20, 20, 20, 30}
	for _, c := range []struct{ p, want float64 }{
		{20, 11},         // the only 10 ms sample covers the first fifth
		{40, 20 + 1.0/3}, // one of the three 20 ms samples
		{60, 20 + 2.0/3},
		{100, 31},
	} {
		if got := msPercentile(ms, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"vitis/internal/core"
	"vitis/internal/idspace"
	"vitis/internal/metrics"
	"vitis/internal/simnet"
	"vitis/internal/store"
	"vitis/internal/telemetry"
	"vitis/internal/workload"
)

// simShape fixes one simulated workload. Rounds are simulated seconds.
type simShape struct {
	nodes, topics, subsPerNode, buckets int
	pattern                             workload.Pattern
	alpha                               float64 // topic-rate skew; 0 = uniform
	events                              int
	warmup, window, drain               int
	// offlineFrac of the nodes leave at round leaveRound, stay away
	// through the window and rejoin with catch-up when the drain starts.
	// Every node then keeps a store.NewMem event store.
	offlineFrac float64
	leaveRound  int
	// recovery switches on Params.Recovery (replay and anti-entropy);
	// period, when set, is the gossip and heartbeat period.
	recovery bool
	period   simnet.Time
}

// simControl is the paper's setting (vitis-sim -pattern high -nodes 512
// -events 200): gossip and heartbeats do almost all the work.
var simControl = simShape{
	nodes: 512, topics: 1000, subsPerNode: 50, buckets: 20,
	pattern: workload.HighCorrelation, events: 200,
	warmup: 40, window: 20, drain: 15,
}

// simData is data-heavy: many events on few topics with power-law rates,
// plus offline subscribers that come back through store catch-up.
var simData = simShape{
	nodes: 512, topics: 200, subsPerNode: 5, buckets: 20,
	pattern: workload.Random, alpha: 1, events: 20000,
	warmup: 40, window: 20, drain: 15,
	offlineFrac: 1.0 / 8, leaveRound: 25,
}

// simRecovery is live-udp's protocol configuration in the simulator: the
// subscriptions live-udp draws from a seed (16 nodes, 8 topics, 4 per
// node), 300 events per second for 25 seconds, a 100 ms gossip and
// heartbeat period and Params.Recovery. Replay
// and anti-entropy run here as they do over UDP, but deterministically, so
// the duplicates they cause are the same on every run of a seed.
var simRecovery = simShape{
	nodes: 16, topics: 8, subsPerNode: 4,
	pattern: workload.Random, events: 7500,
	warmup: 5, window: 25, drain: 3,
	recovery: true, period: 100 * simnet.Millisecond,
}

// catchUpStep and catchUpMaxSteps bound the catch-up phase that follows
// the drain, as in experiments.OfflineCatchUp.
const (
	catchUpStep     = 5 * simnet.Second
	catchUpMaxSteps = 60
)

// simInputs is everything a simulated workload derives from its seed.
type simInputs struct {
	shape   simShape
	seed    int64
	subs    *workload.Subscriptions
	subsOf  [][]int
	rates   []float64 // nil = uniform
	rate    func(idspace.ID) float64
	tids    []idspace.ID
	nids    []simnet.NodeID
	offline []int // sorted node indices
	isOff   []bool
	sched   []workload.Publication
}

// generateSim draws the workload the same way vitis-sim and
// experiments.Run do, so a sim-control run measures the code behind the
// paper tables.
func generateSim(sh simShape, seed int64) (*simInputs, error) {
	subs, err := workload.Generate(workload.SyntheticConfig{
		Nodes: sh.nodes, Topics: sh.topics, SubsPerNode: sh.subsPerNode,
		Buckets: sh.buckets, Pattern: sh.pattern, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &simInputs{shape: sh, seed: seed, subs: subs, subsOf: subs.SubscribersOf(), isOff: make([]bool, sh.nodes)}
	in.tids = make([]idspace.ID, sh.topics)
	for i := range in.tids {
		in.tids[i] = idspace.HashString(fmt.Sprintf("topic-%d", i))
	}
	if sh.alpha > 0 {
		in.rates = workload.TopicRates(rand.New(rand.NewSource(seed+2)), sh.topics, sh.alpha)
		byID := make(map[idspace.ID]float64, len(in.rates))
		for t, r := range in.rates {
			byID[in.tids[t]] = r
		}
		in.rate = func(t idspace.ID) float64 { return byID[t] }
	}
	in.nids = make([]simnet.NodeID, sh.nodes)
	for i := range in.nids {
		in.nids[i] = idspace.HashUint64(uint64(i))
	}

	pubSubs := subs
	if sh.offlineFrac > 0 {
		rng := rand.New(rand.NewSource(seed + 13))
		in.offline = rng.Perm(sh.nodes)[:int(sh.offlineFrac*float64(sh.nodes)+0.5)]
		sort.Ints(in.offline)
		// Publishers are drawn among the subscribers still online.
		pubSubs = &workload.Subscriptions{Nodes: subs.Nodes, Topics: subs.Topics, Subs: make([][]int, sh.nodes)}
		for _, i := range in.offline {
			in.isOff[i] = true
		}
		for i, s := range subs.Subs {
			if !in.isOff[i] {
				pubSubs.Subs[i] = s
			}
		}
	}
	rates := in.rates
	if rates == nil {
		rates = workload.UniformRates(sh.topics)
	}
	in.sched, err = workload.GeneratePublications(workload.PublicationConfig{
		Events: sh.events,
		Start:  simnet.Time(sh.warmup) * simnet.Second,
		Window: simnet.Time(sh.window) * simnet.Second,
		Rates:  rates,
		Subs:   pubSubs,
		Seed:   seed + 2,
	})
	if err != nil {
		return nil, err
	}
	for i := range in.sched {
		// A topic without online subscribers gets a random publisher,
		// which may be offline; move it to the next online node.
		for in.isOff[in.sched[i].Publisher] {
			in.sched[i].Publisher = (in.sched[i].Publisher + 1) % sh.nodes
		}
	}
	return in, nil
}

// published records one event the benchmark published.
type published struct {
	ev        core.EventID
	publisher int32
	at        int64 // sim ms
	exp       expectation
}

// rawDelivery is one OnDeliver call: at is sim ms in a simulation and
// nanoseconds since the run's base in a live run.
type rawDelivery struct {
	ev   core.EventID
	node core.NodeID
	at   int64
	hops int32
}

// simWorld is one built simulation, ready to run.
type simWorld struct {
	in    *simInputs
	eng   *simnet.Engine
	net   *simnet.Network
	nodes []*core.Node
	col   *metrics.Collector
	log   []rawDelivery
	pubs  []published

	// Traced runs only.
	tr   *tracer
	tnet *tracedNet
	met  *telemetry.NodeMetrics

	phase [len(phaseNames)]time.Duration
}

// buildSim builds the nodes and joins them, as experiments.Run does.
func buildSim(in *simInputs, traced bool) *simWorld {
	w := &simWorld{in: in, col: metrics.New()}
	w.eng = simnet.NewEngine(in.seed + 1)
	w.net = simnet.NewNetwork(w.eng, simnet.UniformLatency{Min: 10, Max: 80})
	if traced {
		w.tr = newTracer(time.Now())
		w.tnet = &tracedNet{Net: w.net, t: w.tr}
		w.met = telemetry.NewNodeMetrics(telemetry.NewRegistry())
	}
	w.nodes = make([]*core.Node, in.shape.nodes)
	for i := range w.nodes {
		w.nodes[i] = w.spawn(i)
	}
	for i, nd := range w.nodes {
		n := len(w.nodes)
		nd.Join([]core.NodeID{in.nids[(i+1)%n], in.nids[(i+2)%n], in.nids[(i+3)%n]})
	}
	return w
}

func (w *simWorld) spawn(i int) *core.Node {
	in := w.in
	hooks := core.Hooks{
		OnDeliver: func(node core.NodeID, _ core.TopicID, ev core.EventID, hops int) {
			w.col.Deliver(ev, node, hops)
			w.log = append(w.log, rawDelivery{ev: ev, node: node, at: int64(w.eng.Now())})
		},
		OnNotification: func(node core.NodeID, _ core.TopicID, interested bool) {
			w.col.Notification(node, interested)
		},
	}
	var net simnet.Net = w.net
	if in.shape.offlineFrac > 0 {
		hooks.Store = store.NewMem(0, nil)
	}
	if w.tr != nil {
		net = w.tnet
		hooks = tracedHooks(hooks, w.tr)
		hooks.Metrics = w.met
		if hooks.Store != nil {
			hooks.Store = tracedStore{EventStore: hooks.Store, t: w.tr}
		}
	}
	nd := core.NewNode(net, in.nids[i], core.Params{
		NetworkSizeEstimate: in.shape.nodes,
		Recovery:            in.shape.recovery,
		GossipPeriod:        in.shape.period,
		HeartbeatPeriod:     in.shape.period,
	}, hooks)
	nd.SetRate(in.rate)
	for _, t := range in.subs.Subs[i] {
		nd.Subscribe(in.tids[t])
	}
	return nd
}

// runPhase runs one phase, timed and (in a traced run) spanned.
func (w *simWorld) runPhase(p int, fn func()) {
	start := time.Now()
	if w.tr != nil {
		w.tr.begin(phaseSpans[p])
		fn()
		w.tr.end()
	} else {
		fn()
	}
	w.phase[p] = time.Since(start)
}

// run executes warmup, window, drain and (with offline nodes) catch-up.
func (w *simWorld) run() {
	in, sh, eng := w.in, w.in.shape, w.eng
	sec := simnet.Second
	w.runPhase(0, func() {
		if len(in.offline) > 0 {
			eng.RunUntil(simnet.Time(sh.leaveRound) * sec)
			for _, i := range in.offline {
				w.nodes[i].Leave()
			}
		}
		eng.RunUntil(simnet.Time(sh.warmup) * sec)
	})
	w.runPhase(1, func() {
		for _, p := range in.sched {
			p := p
			eng.ScheduleAt(p.At, func() { w.publish(p) })
		}
		eng.RunUntil(simnet.Time(sh.warmup+sh.window) * sec)
	})
	w.runPhase(2, func() {
		if len(in.offline) > 0 {
			w.rejoinOffline()
		}
		eng.RunUntil(simnet.Time(sh.warmup+sh.window+sh.drain) * sec)
	})
	if len(in.offline) > 0 {
		w.runPhase(3, func() {
			for step := 0; step < catchUpMaxSteps && w.catchUpPending() > 0; step++ {
				eng.RunUntil(eng.Now() + catchUpStep)
			}
		})
	}
}

// publish is experiments.Run's publication callback, plus the checker's
// bookkeeping: expected receivers are the subscribers alive at publish
// time; detached subscribers are owed the event through catch-up.
func (w *simWorld) publish(p workload.Publication) {
	in := w.in
	topic := in.tids[p.Topic]
	var exp expectation
	var expected []simnet.NodeID
	for _, si := range in.subsOf[p.Topic] {
		if w.nodes[si].Alive() {
			expected = append(expected, in.nids[si])
			exp.online = append(exp.online, int32(si))
		} else {
			exp.offline = append(exp.offline, int32(si))
		}
	}
	pub := w.nodes[p.Publisher]
	ev := pub.Publish(topic)
	w.col.RecordPublish(ev, topic, w.eng.Now(), expected)
	// The publisher's own delivery hook fired inside Publish, before the
	// event was registered; re-record it.
	if pub.Subscribed(topic) {
		w.col.Deliver(ev, in.nids[p.Publisher], 0)
	}
	w.pubs = append(w.pubs, published{ev: ev, publisher: int32(p.Publisher), at: int64(w.eng.Now()), exp: exp})
}

// rejoinOffline brings the detached cohort back with fresh state and empty
// stores, bootstrapped from three online nodes, and starts catch-up.
func (w *simWorld) rejoinOffline() {
	in := w.in
	rng := rand.New(rand.NewSource(in.seed + 17))
	var online []int
	for i := range w.nodes {
		if !in.isOff[i] {
			online = append(online, i)
		}
	}
	for _, i := range in.offline {
		nd := w.spawn(i)
		boot := make([]core.NodeID, 0, 3)
		for _, k := range rng.Perm(len(online))[:3] {
			boot = append(boot, in.nids[online[k]])
		}
		nd.Join(boot)
		nd.StartCatchUp()
		w.nodes[i] = nd
	}
}

func (w *simWorld) catchUpPending() int {
	n := 0
	for _, i := range w.in.offline {
		n += w.nodes[i].CatchUpPending()
	}
	return n
}

// simOutcome is what one simulation produced. Everything except the
// timings is a pure function of the seed.
type simOutcome struct {
	hit, overhead, delay float64
	bytes, events        uint64
	v                    verdict
	latencies            []float64 // ms, first deliveries to online remote subscribers
	kinds                kindCounts
}

// same reports whether two runs of one seed reached the same protocol
// outcome.
func (o *simOutcome) same(p *simOutcome) bool {
	return o.hit == p.hit && o.overhead == p.overhead && o.delay == p.delay &&
		o.bytes == p.bytes && o.events == p.events && o.v == p.v
}

func (w *simWorld) outcome() *simOutcome {
	o := &simOutcome{
		hit:      w.col.HitRatio(),
		overhead: w.col.OverheadRatio(),
		delay:    w.col.AvgDelay(),
		bytes:    w.net.BytesSent(),
		events:   w.eng.EventsExecuted(),
	}
	if w.tnet != nil {
		o.kinds = w.tnet.counts
	}
	exp, log := resolve(w.pubs, w.in.nids, w.log)
	o.v = check(exp, log)
	o.latencies = firstLatencies(w.pubs, log, 1)
	return o
}

// resolve maps raw deliveries to event and node indices; events the
// benchmark never published map to -1.
func resolve(pubs []published, nids []simnet.NodeID, raw []rawDelivery) ([]expectation, []delivery) {
	evIdx := make(map[core.EventID]int32, len(pubs))
	exp := make([]expectation, len(pubs))
	for i, p := range pubs {
		evIdx[p.ev] = int32(i)
		exp[i] = p.exp
	}
	nodeIdx := make(map[core.NodeID]int32, len(nids))
	for i, id := range nids {
		nodeIdx[id] = int32(i)
	}
	log := make([]delivery, len(raw))
	for i, r := range raw {
		e, ok := evIdx[r.ev]
		if !ok {
			e = -1
		}
		n, ok := nodeIdx[r.node]
		if !ok {
			n = -1
		}
		log[i] = delivery{event: e, node: n, at: r.at}
	}
	return exp, log
}

// firstLatencies returns at - pubs[event].at for the first delivery of
// every operation owed to an online subscriber other than the publisher.
// log must be sorted by check; scale converts the difference to ms.
func firstLatencies(pubs []published, log []delivery, scale float64) []float64 {
	var out []float64
	for i, d := range log {
		if d.event < 0 || i > 0 && log[i-1].event == d.event && log[i-1].node == d.node {
			continue
		}
		p := &pubs[d.event]
		if d.node == p.publisher || !containsNode(p.exp.online, d.node) {
			continue
		}
		out = append(out, float64(d.at-p.at)*scale)
	}
	return out
}

// msPercentile is the p-th percentile of simulated latencies. The sim
// clock ticks in whole ms, so a latency of v ms stands for [v, v+1) and the
// percentile interpolates linearly inside that bin, as a histogram quantile
// does; an order statistic would only ever read whole ms.
func msPercentile(ms []float64, p float64) float64 {
	if len(ms) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	want := p / 100 * float64(len(sorted))
	i := int(math.Ceil(want)) - 1
	if i < 0 {
		i = 0
	}
	v := sorted[i]
	lo := sort.SearchFloat64s(sorted, v)
	hi := sort.SearchFloat64s(sorted, v+1)
	return v + (want-float64(lo))/float64(hi-lo)
}

func containsNode(sorted []int32, node int32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= node })
	return i < len(sorted) && sorted[i] == node
}

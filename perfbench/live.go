package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vitis/internal/core"
	"vitis/internal/idspace"
	"vitis/internal/metrics"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
	"vitis/internal/workload"
)

// The live-udp workload: the real stack in one process. Every node has its
// own UDP socket on 127.0.0.1, its own Host and its own Driver; traffic
// crosses the host's loopback interface, not a real link. Load is an
// open-loop Poisson schedule, one publisher per topic.
const (
	liveNodes       = 16
	liveTopics      = 8
	liveSubsPerNode = 4
	liveRate        = 300.0 // offered events per second
	liveSettle      = 5 * time.Second
	liveDrain       = 3 * time.Second
	livePeriod      = 100 * simnet.Millisecond
)

var liveParams = core.Params{
	GossipPeriod:        livePeriod,
	HeartbeatPeriod:     livePeriod,
	Recovery:            true,
	NetworkSizeEstimate: liveNodes,
}

// liveEvent is one scheduled publish.
type liveEvent struct {
	due   time.Duration // whole ms on the publisher's engine clock
	topic int
	pub   int    // publisher node index
	seq   uint64 // the publisher's event sequence (core.EventID.Seq)
}

type liveInputs struct {
	seed   int64
	subs   *workload.Subscriptions
	subsOf [][]int // publisher included
	tids   []idspace.ID
	nids   []simnet.NodeID
	sched  []liveEvent
	window time.Duration
}

// generateLive draws subscriptions, one publisher per topic (a subscriber
// that publishes nothing else when one exists, as vitis-cluster does) and
// the Poisson schedule.
func generateLive(seed int64, window time.Duration) (*liveInputs, error) {
	subs, err := workload.Generate(workload.SyntheticConfig{
		Nodes: liveNodes, Topics: liveTopics, SubsPerNode: liveSubsPerNode,
		Pattern: workload.Random, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &liveInputs{seed: seed, subs: subs, subsOf: subs.SubscribersOf(), window: window}
	in.tids = make([]idspace.ID, liveTopics)
	for i := range in.tids {
		in.tids[i] = idspace.HashString(fmt.Sprintf("topic-%d", i))
	}
	in.nids = make([]simnet.NodeID, liveNodes)
	for i := range in.nids {
		in.nids[i] = idspace.HashUint64(uint64(i))
	}
	pubOf := make([]int, liveTopics)
	isPub := make([]bool, liveNodes)
	for t := range pubOf {
		pick := -1
		for _, n := range in.subsOf[t] {
			if !isPub[n] {
				pick = n
				break
			}
		}
		if pick == -1 {
			// Every subscriber already publishes another topic: a free
			// node stands in and subscribes.
			for n := 0; n < liveNodes && pick == -1; n++ {
				if !isPub[n] {
					pick = n
				}
			}
			subs.Subs[pick] = append(subs.Subs[pick], t)
			in.subsOf = subs.SubscribersOf()
		}
		isPub[pick] = true
		pubOf[t] = pick
	}
	rng := rand.New(rand.NewSource(seed + 3))
	seqs := make([]uint64, liveNodes)
	for at := 0.0; ; {
		at += rng.ExpFloat64() / liveRate
		off := time.Duration(at * float64(time.Second))
		if off >= window {
			break
		}
		t := rng.Intn(liveTopics)
		p := pubOf[t]
		due := (liveSettle + off).Truncate(time.Millisecond)
		in.sched = append(in.sched, liveEvent{due: due, topic: t, pub: p, seq: seqs[p]})
		seqs[p]++
	}
	return in, nil
}

// liveNode is the benchmark's per-node state. Its slices are written only
// on the node's driver goroutine and read after the drivers have stopped.
type liveNode struct {
	udp     *transport.UDP
	hostMet *telemetry.HostMetrics
	host    *transport.Host
	node    *core.Node
	log     []rawDelivery
	fired   []time.Duration // when each of its publishes ran, in schedule order
	notif   [2]uint64       // interested, uninterested
	start   time.Duration   // when its engine's first event ran

	tr   *tracer // traced runs only
	tnet *tracedNet
}

type liveCluster struct {
	in    *liveInputs
	nodes []*liveNode
	met   *telemetry.NodeMetrics // traced runs only
	base  time.Time
}

// buildLive opens the sockets, seeds every address book, builds and joins
// the nodes. Nothing runs until run starts the drivers.
func buildLive(in *liveInputs, traced bool) (*liveCluster, error) {
	c := &liveCluster{in: in}
	if traced {
		c.met = telemetry.NewNodeMetrics(telemetry.NewRegistry())
	}
	for i := 0; i < liveNodes; i++ {
		udp, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			c.close()
			return nil, err
		}
		ln := &liveNode{udp: udp, hostMet: telemetry.NewHostMetrics(nil)}
		c.nodes = append(c.nodes, ln)
		var tr transport.Transport = udp
		if traced {
			ln.tr = newTracer(time.Now())
			tr = tracedTransport{Transport: udp, t: ln.tr}
		}
		ln.host = transport.NewHost(simnet.NewEngine(in.seed*1000+int64(i)), tr, ln.hostMet)
		// The engine's first event runs just after the driver starts its
		// clock; see engineStart.
		ln.host.Engine().ScheduleAt(0, func() { ln.start = time.Since(c.base) })
	}
	for _, a := range c.nodes {
		for j, b := range c.nodes {
			if err := a.udp.SetPeer(in.nids[j], b.udp.LocalAddr().String()); err != nil {
				c.close()
				return nil, err
			}
		}
	}
	for i, ln := range c.nodes {
		ln := ln
		hooks := core.Hooks{
			OnDeliver: func(node core.NodeID, _ core.TopicID, ev core.EventID, hops int) {
				ln.log = append(ln.log, rawDelivery{ev: ev, node: node, at: int64(time.Since(c.base)), hops: int32(hops)})
			},
			OnNotification: func(_ core.NodeID, _ core.TopicID, interested bool) {
				if interested {
					ln.notif[0]++
				} else {
					ln.notif[1]++
				}
			},
		}
		var net simnet.Net = ln.host
		if traced {
			ln.tnet = &tracedNet{Net: ln.host, t: ln.tr}
			net = ln.tnet
			hooks = tracedHooks(hooks, ln.tr)
			hooks.Metrics = c.met
		}
		ln.node = core.NewNode(net, in.nids[i], liveParams, hooks)
		for _, t := range in.subs.Subs[i] {
			ln.node.Subscribe(in.tids[t])
		}
	}
	for i, ln := range c.nodes {
		ln.node.Join([]core.NodeID{in.nids[(i+1)%liveNodes], in.nids[(i+2)%liveNodes], in.nids[(i+3)%liveNodes]})
	}
	return c, nil
}

func (c *liveCluster) close() {
	for _, ln := range c.nodes {
		ln.udp.Close()
	}
}

// liveSnap is a reading of the process and transport counters.
type liveSnap struct {
	at      time.Duration
	cpu     time.Duration
	txBytes uint64
	mem     runtimeSnap
}

func (c *liveCluster) snap() liveSnap {
	s := liveSnap{at: time.Since(c.base), cpu: cpuTime(), mem: readRuntime()}
	for _, ln := range c.nodes {
		s.txBytes += ln.udp.Counters().TxBytes
	}
	return s
}

// liveRun is what one live run measured.
type liveRun struct {
	winStart, winEnd liveSnap
	wall             time.Duration // drivers started until all stopped
	events           uint64        // engine events and inbox dispatches, all nodes
	inboxDepthMax    int64         // traced runs only
}

// run starts the drivers, lets the overlay settle, plays the publish
// schedule through the window, drains, and stops every driver and socket.
func (c *liveCluster) run() liveRun {
	var r liveRun
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	byPub := make([][]liveEvent, liveNodes)
	for _, e := range c.in.sched {
		byPub[e.pub] = append(byPub[e.pub], e)
	}
	c.base = time.Now()
	for i, ln := range c.nodes {
		ln := ln
		eng := ln.host.Engine()
		for _, e := range byPub[i] {
			e := e
			eng.ScheduleAt(simnet.Time(e.due/time.Millisecond), func() {
				ln.fired = append(ln.fired, time.Since(c.base))
				ln.node.Publish(c.in.tids[e.topic])
			})
		}
		d := transport.NewDriver(ln.host)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Run(ctx)
		}()
	}
	if c.met != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.inboxDepthMax = c.sampleInboxDepth(ctx)
		}()
	}
	time.Sleep(time.Until(c.base.Add(liveSettle)))
	r.winStart = c.snap()
	time.Sleep(time.Until(c.base.Add(liveSettle + c.in.window)))
	r.winEnd = c.snap()
	time.Sleep(time.Until(c.base.Add(liveSettle + c.in.window + liveDrain)))
	cancel()
	wg.Wait()
	c.close()
	r.wall = time.Since(c.base)
	for _, ln := range c.nodes {
		// A simulator delivers messages as engine events; a live host
		// dispatches them from its inbox. Both count as events.
		r.events += ln.host.Engine().EventsExecuted() + ln.host.Counters().Received
	}
	return r
}

// sampleInboxDepth polls every host's inbox gauge until ctx ends and
// returns the largest depth seen.
func (c *liveCluster) sampleInboxDepth(ctx context.Context) int64 {
	var max int64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return max
		case <-tick.C:
			for _, ln := range c.nodes {
				if d := ln.hostMet.InboxDepth.Value(); d > max {
					max = d
				}
			}
		}
	}
}

// liveOutcome is the checked result of a live run.
type liveOutcome struct {
	v                    verdict
	hit, overhead, delay float64
	latencies            []float64 // ms from the publish's due time
	late                 []float64 // ms the generator fired after the due time
	windowDeliveries     int       // first deliveries inside the window
}

func (c *liveCluster) outcome(r liveRun) *liveOutcome {
	in := c.in
	o := &liveOutcome{}
	starts := make([]time.Duration, liveNodes)
	next := make([]int, liveNodes)
	for i := range starts {
		starts[i] = c.engineStart(i)
	}
	for _, e := range in.sched {
		ln := c.nodes[e.pub]
		if k := next[e.pub]; k < len(ln.fired) {
			o.late = append(o.late, float64(ln.fired[k]-starts[e.pub]-e.due)/1e6)
		}
		next[e.pub]++
	}
	pubs := make([]published, len(in.sched))
	col := metrics.New()
	for i, e := range in.sched {
		var exp expectation
		var expected []simnet.NodeID
		for _, si := range in.subsOf[e.topic] {
			exp.online = append(exp.online, int32(si))
			expected = append(expected, in.nids[si])
		}
		ev := core.EventID{Publisher: in.nids[e.pub], Seq: e.seq}
		due := starts[e.pub] + e.due
		pubs[i] = published{ev: ev, publisher: int32(e.pub), at: int64(due), exp: exp}
		col.RecordPublish(ev, in.tids[e.topic], 0, expected)
	}
	var raw []rawDelivery
	for _, ln := range c.nodes {
		raw = append(raw, ln.log...)
		for k := uint64(0); k < ln.notif[0]; k++ {
			col.Notification(ln.node.ID(), true)
		}
		for k := uint64(0); k < ln.notif[1]; k++ {
			col.Notification(ln.node.ID(), false)
		}
	}
	for _, d := range raw {
		col.Deliver(d.ev, d.node, int(d.hops))
	}
	o.hit, o.overhead, o.delay = col.HitRatio(), col.OverheadRatio(), col.AvgDelay()
	exp, log := resolve(pubs, in.nids, raw)
	o.v = check(exp, log)
	o.latencies = firstLatencies(pubs, log, 1e-6)
	for i, d := range log {
		first := i == 0 || log[i-1].event != d.event || log[i-1].node != d.node
		if first && d.event >= 0 && d.at >= int64(r.winStart.at) && d.at < int64(r.winEnd.at) {
			o.windowDeliveries++
		}
	}
	return o
}

// engineStart estimates when node i's driver started its engine clock: an
// event due at engine time T runs no earlier than that start plus T, so
// the earliest run time minus due time over the engine's first event and
// all its publishes bounds the start from above, tightly. Publish lateness
// and latency count from due times on that clock.
func (c *liveCluster) engineStart(i int) time.Duration {
	ln := c.nodes[i]
	start := ln.start
	k := 0
	for _, e := range c.in.sched {
		if e.pub != i {
			continue
		}
		if k < len(ln.fired) && ln.fired[k]-e.due < start {
			start = ln.fired[k] - e.due
		}
		k++
	}
	return start
}

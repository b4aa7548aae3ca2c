package main

import (
	"fmt"
	"sort"
)

// An operation is one expected (event, subscriber) delivery. It succeeds
// when the subscriber's application sees the event exactly once; it fails
// when the event is missed or delivered more than once. A delivery to a
// node that is not an expected receiver, or of an event the benchmark never
// published, means the program's output is wrong, not merely incomplete:
// those are hard failures.

// expectation lists the receivers owed one event. Online receivers were
// attached when it was published; offline ones were detached and can only
// get it through catch-up.
type expectation struct {
	online, offline []int32 // node indices, each sorted ascending
}

// delivery is one application delivery: event index (-1 for an event the
// benchmark never published), node index and time.
type delivery struct {
	event, node int32
	at          int64
}

// verdict classifies a delivery log against the expectations.
type verdict struct {
	expected    int // operations
	delivered   int // operations delivered at least once
	missed      int // operations never delivered
	duplicated  int // operations delivered more than once
	extraCopies int // deliveries beyond the first, summed
	spurious    int // deliveries to a node the event was not owed to
	unpublished int // deliveries of events nobody published

	offlineExpected, offlineDelivered int
}

// failed is the number of failed operations.
func (v verdict) failed() int { return v.missed + v.duplicated }

// hardErrors lists the conditions that make a run's output incorrect.
func (v verdict) hardErrors() []string {
	var errs []string
	if v.spurious > 0 {
		errs = append(errs, fmt.Sprintf("%d deliveries to nodes not subscribed to the event's topic", v.spurious))
	}
	if v.unpublished > 0 {
		errs = append(errs, fmt.Sprintf("%d deliveries of events that were never published", v.unpublished))
	}
	if v.delivered+v.missed != v.expected {
		errs = append(errs, fmt.Sprintf("delivered %d + missed %d != expected %d", v.delivered, v.missed, v.expected))
	}
	return errs
}

// check classifies log against exp, indexed by event. It sorts log in
// place by event, node and time, so each operation's first delivery leads
// its group.
func check(exp []expectation, log []delivery) verdict {
	sort.Slice(log, func(i, j int) bool {
		if log[i].event != log[j].event {
			return log[i].event < log[j].event
		}
		if log[i].node != log[j].node {
			return log[i].node < log[j].node
		}
		return log[i].at < log[j].at
	})
	var v verdict
	i := 0
	for i < len(log) && log[i].event < 0 {
		v.unpublished++
		i++
	}
	for ev, e := range exp {
		start := i
		for i < len(log) && log[i].event == int32(ev) {
			i++
		}
		got := log[start:i]
		v.classify(e.online, got)
		v.offlineExpected += len(e.offline)
		v.offlineDelivered += v.classify(e.offline, got)
		// Whatever neither list claimed went to a node the event was not
		// owed to.
		v.spurious += len(got) - countIn(e.online, got) - countIn(e.offline, got)
	}
	for ; i < len(log); i++ {
		v.unpublished++
	}
	return v
}

// classify counts the operations owed to want and returns how many of them
// were delivered. got is sorted by node.
func (v *verdict) classify(want []int32, got []delivery) int {
	delivered := 0
	j := 0
	for _, node := range want {
		for j < len(got) && got[j].node < node {
			j++
		}
		copies := 0
		for j < len(got) && got[j].node == node {
			copies++
			j++
		}
		v.expected++
		switch {
		case copies == 0:
			v.missed++
		default:
			v.delivered++
			delivered++
			if copies > 1 {
				v.duplicated++
				v.extraCopies += copies - 1
			}
		}
	}
	return delivered
}

// countIn returns how many entries of got (sorted by node) are addressed
// to a node in want.
func countIn(want []int32, got []delivery) int {
	n := 0
	j := 0
	for _, node := range want {
		for j < len(got) && got[j].node < node {
			j++
		}
		for j < len(got) && got[j].node == node {
			n++
			j++
		}
	}
	return n
}

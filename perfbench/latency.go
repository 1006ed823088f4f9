package main

import (
	"fmt"
	"sort"
	"time"

	"grouter/internal/metrics"
)

// Latency is measured from each request's arrival in the trace, the instant
// its user sent it, to its completion. The program's own end-to-end latency
// starts at admission instead, which with windowed admission is the close of
// the request's window; the wait for that close is part of what a user sees.
// It also makes the percentiles continuous: measured from admission, a
// lightly loaded model with fixed service times completes most requests in
// exactly the same time on every seed.

// doneLog records the completions a replay reports through OnComplete.
type doneLog struct {
	seq   []int64
	at    []time.Duration
	sub   []time.Duration // submission instant: completion minus e2e
	class []int8
}

func (d *doneLog) add(seq int64, at, e2e time.Duration, class int8) {
	d.seq = append(d.seq, seq)
	d.at = append(d.at, at)
	d.sub = append(d.sub, at-e2e)
	d.class = append(d.class, class)
}

// bySeq returns each completion's latency from arrival for a service that
// launches every request at admission, in trace order: launch number seq
// (1-based) served arrival index(seq). Each arrival may complete only once.
func (d *doneLog) bySeq(arrivals []time.Duration, index func(seq int64) int) ([]time.Duration, error) {
	seen := make([]bool, len(arrivals))
	lat := make([]time.Duration, len(d.seq))
	for k, s := range d.seq {
		i := index(s)
		if i < 0 || i >= len(arrivals) || seen[i] {
			return nil, fmt.Errorf("completion seq %d maps to arrival %d of %d twice or out of range", s, i, len(arrivals))
		}
		seen[i] = true
		lat[k] = d.at[k] - arrivals[i]
	}
	return lat, nil
}

// byWindow returns each completion's latency from arrival for an app whose
// admission control may defer or shed requests, so launch order is not
// trace order. A completion's submission instant names its admission window
// exactly; within one window and QoS class, completions are matched to
// arrivals in launch order, and arrivals left over were shed. Same-class
// requests of one window meet the same admission state, so they are
// deferred or shed together and launch order within the group is trace
// order.
func (d *doneLog) byWindow(arrivals []time.Duration, q time.Duration, classOf func(i int) int8) ([]time.Duration, error) {
	type key struct {
		sub   time.Duration
		class int8
	}
	waiting := map[key][]int{}
	for i, a := range arrivals {
		k := key{(a/q + 1) * q, classOf(i)}
		waiting[k] = append(waiting[k], i)
	}
	order := make([]int, len(d.seq))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(x, y int) bool { return d.seq[order[x]] < d.seq[order[y]] })
	lat := make([]time.Duration, len(d.seq))
	for _, k := range order {
		g := key{d.sub[k], d.class[k]}
		idx := waiting[g]
		if len(idx) == 0 {
			return nil, fmt.Errorf("completion seq %d submitted at %v has no arrival of class %d left in its window", d.seq[k], d.sub[k], d.class[k])
		}
		lat[k] = d.at[k] - arrivals[idx[0]]
		waiting[g] = idx[1:]
	}
	return lat, nil
}

// setLatency fills v's latency percentiles, the samples beyond p99.9 and
// the completions within their class's limit, from latencies lat of the
// completions in d.
func setLatency(v *virt, lat []time.Duration, d *doneLog, limit func(class int8) time.Duration) {
	for k, l := range lat {
		if l <= limit(d.class[k]) {
			v.Met++
		}
	}
	var l metrics.Latency
	for _, d := range lat {
		l.Add(d)
	}
	v.P50 = l.P(0.5)
	v.P99 = l.P(0.99)
	v.P999 = l.P(0.999)
	sorted := l.Samples()
	v.Beyond999 = len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v.P999 })
}

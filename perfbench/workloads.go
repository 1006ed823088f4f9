package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/metrics"
	"grouter/internal/models"
	"grouter/internal/obs"
	"grouter/internal/router"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/trace"
	"grouter/internal/workflow"
)

// drainSlack is how far past the last arrival a replay may drain before the
// backlog check fails it: a workload sized below saturation drains within a
// few request latencies of its last arrival, while a growing queue drains
// seconds late and would report its backlog as latency.
const drainSlack = time.Second

// admissionQuantum is every workload's admission window: arrivals inside
// one window are admitted together at its closing edge.
const admissionQuantum = 10 * time.Millisecond

// The burst shape of the bursty traces: bursts at twice the mean rate,
// 100 ms long on average. The generator's defaults (4x, 5 s) make the
// request count, goodput and tails spread widely from seed to seed.
const (
	burstFactor = 2
	burstLen    = 100 * time.Millisecond
)

// SLO budgets of the image-routed-slo workload (the ext-slo class budgets).
const (
	sloHighBudget = 25 * time.Millisecond
	sloLowBudget  = 150 * time.Millisecond
	sloHighDelay  = 4 * time.Millisecond
	sloLowDelay   = 20 * time.Millisecond
)

// Latency limits of virt_goodput_rps.
const (
	chainLimit = 50 * time.Millisecond
	ttftLimit  = 200 * time.Millisecond
)

// workload is one replay the benchmark measures.
type workload struct {
	name string
	// pattern, rps and dur describe the generated arrival trace.
	pattern trace.Pattern
	rps     float64
	dur     time.Duration
	// spec and nodes give the modelled cluster of one pod; payload is the
	// representative data-plane transfer size the isolated layer drives use.
	spec    func() *topology.Spec
	nodes   int
	payload int64
	// replay generates the trace, builds the system, replays the trace and
	// collects the outcome, as ro says.
	replay func(w *workload, ro runOpts) (*outcome, error)
}

// runOpts says how one replay runs.
type runOpts struct {
	seed int64
	// prefix, when positive, replays only the trace's first prefix
	// arrivals.
	prefix int
	// h, when non-nil, makes this the traced run.
	h *hooks
}

func (w *workload) traceSpec(seed int64) trace.Spec {
	return trace.Spec{Pattern: w.pattern, Duration: w.dur, MeanRPS: w.rps, Seed: seed,
		BurstFactor: burstFactor, BurstLen: burstLen}
}

func (w *workload) arrivals(seed int64, prefix int) []time.Duration {
	a := trace.Generate(w.traceSpec(seed))
	if prefix > 0 && len(a) > prefix {
		a = a[:prefix]
	}
	return a
}

// virt holds a replay's virtual-time results. They are deterministic given
// the seed, so every repetition and the traced run must reproduce them
// exactly.
type virt struct {
	// Attempted, Completed, Shed and Lost count requests per QoS class;
	// Lost is what neither completed nor was shed once the engine drained.
	Attempted, Completed, Shed, Lost [2]int
	P50, P99, P999                   time.Duration
	// Beyond999 counts completions above the p99.9 sample.
	Beyond999 int
	// Met counts completions within the workload's latency limit.
	Met int
	// Drain is the replay's virtual length; Span its last arrival offset.
	Drain, Span time.Duration
	GPUSeconds  float64
	TTFTP99     time.Duration
}

func (v *virt) attempted() int { return v.Attempted[0] + v.Attempted[1] }
func (v *virt) completed() int { return v.Completed[0] + v.Completed[1] }
func (v *virt) lost() int      { return v.Lost[0] + v.Lost[1] }

// outcome is everything one replay reports.
type outcome struct {
	v virt
	// count holds the program's own deterministic counters.
	count map[string]int64
	host  hostCost
	// setup is the host time from the start of trace generation until the
	// system is ready to admit its first request.
	setup time.Duration
	// Filled only by the traced run.
	h         *hooks
	tracers   []*obs.Tracer
	buckets   [obs.NumBuckets]time.Duration
	shardUtil []sim.ShardUtil
}

var workloads = []*workload{
	// The canonical ScaleReplay shape, placement only: proc switches,
	// request plans, store reserve and small flows carry the cost, and the
	// router and coalescing are bypassed.
	{
		name:    "driving-chain",
		pattern: trace.Bursty, rps: 100, dur: 1440 * time.Second,
		spec: topology.DGXV100, nodes: 2,
		payload: workflow.EdgeBytes(workflow.Driving().Stages[0], 1),
		replay:  replayDriving,
	},
	// The only ShardGroup workload. Its pods are driving-chain's, so a gain
	// here that is absent there is multi-core scaling.
	{
		name:    "fleet-sharded",
		pattern: trace.Bursty, rps: 500, dur: 120 * time.Second,
		spec: topology.DGXV100, nodes: 2,
		payload: workflow.EdgeBytes(workflow.Driving().Stages[0], 1),
		replay:  replayFleet,
	},
	// The read-heavy use of the plane (one Put read by four consumers) and
	// the only workload with router picks and admission prediction.
	{
		name:    "image-routed-slo",
		pattern: trace.Bursty, rps: 100, dur: 240 * time.Second,
		spec: topology.DGXV100, nodes: 2,
		payload: workflow.EdgeBytes(workflow.Image().Stages[0], 1),
		replay:  replayImage,
	},
	// The only workload with TTFT and the PD layer. Only 1 in 128 requests
	// hands off KV, so it mostly bypasses store, netsim, xfer and core.
	{
		name:    "llm-pd",
		pattern: trace.Sporadic, rps: 90, dur: 9000 * time.Second,
		spec: topology.H800x8, nodes: 1,
		payload: models.MustLookupLLM("llama-7b").KVBytes(8192),
		replay:  replayLLM,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// grouterPlane builds the full GROUTER plane, with or without fan-out
// coalescing, and records each plane it builds in *planes.
func grouterPlane(coalesce bool, planes *[]*core.Plane) func(*fabric.Fabric) dataplane.Plane {
	return func(f *fabric.Fabric) dataplane.Plane {
		cfg := core.FullConfig()
		cfg.Coalesce = coalesce
		pl := core.New(f, cfg)
		*planes = append(*planes, pl)
		return pl
	}
}

// deployDriving builds one driving-chain pod on e: the Driving workflow on
// 2x DGX-V100 with the GROUTER plane and default elastic pools.
func deployDriving(e *sim.Engine, h *hooks, planes *[]*core.Plane) *cluster.App {
	c := cluster.New(e, topology.DGXV100(), 2, wrapPlane(h, grouterPlane(false, planes)))
	app := c.Deploy(workflow.Driving(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
	app.EnableElastic(wrapScaler(h, cluster.DefaultElastic()))
	return app
}

// appReplay replays arrivals through one app, timing the replay phase from
// the first admitted request to drain, and set-up from t0 to that request.
func appReplay(t0 time.Time, app *cluster.App, arrivals []time.Duration, q time.Duration, reqAt func(i int) cluster.Request) (*outcome, cluster.ReplayStats, error) {
	o := &outcome{}
	var m *meter
	st, err := app.Replay(arrivals, cluster.ReplaySpec{Quantum: q, RequestAt: func(i int) cluster.Request {
		if m == nil {
			m = startMeter()
		}
		req := reqAt(i)
		o.v.Attempted[req.QoS]++
		return req
	}})
	if err != nil {
		return nil, st, fmt.Errorf("replay: %w", err)
	}
	if m == nil {
		return nil, st, errors.New("replay admitted no request")
	}
	o.setup = m.t0.Sub(t0)
	o.host = m.end()
	return o, st, nil
}

func replayDriving(w *workload, ro runOpts) (*outcome, error) { return replayCNN(w, ro, false) }

func replayImage(w *workload, ro runOpts) (*outcome, error) { return replayCNN(w, ro, true) }

// replayCNN runs driving-chain (placement only) or image-routed-slo (the
// Image ensemble behind the scored SLO router, coalescing on).
func replayCNN(w *workload, ro runOpts, routed bool) (*outcome, error) {
	h := ro.h
	runtime.GC()
	t0 := time.Now()
	arrivals := w.arrivals(ro.seed, ro.prefix)
	e := sim.NewEngine()
	defer e.Close()
	if h != nil {
		obs.Attach(e)
	}
	retries0 := metrics.Faults().Retries.Load()
	var planes []*core.Plane
	var app *cluster.App
	var rt *router.Router
	reqAt := func(int) cluster.Request { return cluster.Request{} }
	limit := func(cluster.QoS) time.Duration { return chainLimit }
	if routed {
		c := cluster.New(e, w.spec(), w.nodes, wrapPlane(h, grouterPlane(true, &planes)))
		app = c.Deploy(workflow.Image(), 1, scheduler.Options{Node: 0, SplitAcrossNodes: true})
		app.EnableElastic(wrapScaler(h, cluster.DefaultElastic()))
		cfg := router.DefaultConfig()
		cfg.SLO = router.SLOConfig{
			High: router.SLOClass{Budget: sloHighBudget, MaxDelay: sloHighDelay},
			Low:  router.SLOClass{Budget: sloLowBudget, MaxDelay: sloLowDelay},
		}
		cfg.Weights.Session = 2
		rt = router.New(app, cfg)
		reqAt = func(i int) cluster.Request {
			req := cluster.Request{Session: int64(i%64) + 1}
			if (i+1)%5 == 0 {
				req.QoS = cluster.QoSHigh
			}
			return req
		}
		limit = func(q cluster.QoS) time.Duration {
			if q == cluster.QoSHigh {
				return sloHighBudget
			}
			return sloLowBudget
		}
	} else {
		app = deployDriving(e, h, &planes)
	}
	var bd *cluster.Breakdown
	if h != nil {
		bd = app.EnableBreakdown()
		wrapRouter(h, app)
	}
	// OnComplete runs right after the app records the completion in its
	// class's series, so the series that grew names the class.
	var done doneLog
	highSeen := 0
	app.OnComplete = func(seq int64, at, e2e time.Duration) {
		class := int8(0)
		if n := app.E2EClass[cluster.QoSHigh].Count(); n != highSeen {
			highSeen, class = n, 1
		}
		done.add(seq, at, e2e, class)
	}
	o, st, err := appReplay(t0, app, arrivals, admissionQuantum, reqAt)
	if err != nil {
		return nil, err
	}
	o.count = map[string]int64{}
	for q := range o.v.Completed {
		o.v.Completed[q] = app.E2EClass[q].Count()
		o.v.Shed[q] = app.ShedByClass[q]
	}
	if app.Completed != o.v.completed() || st.Completed != app.Completed || st.Shed != app.Shed || len(done.seq) != app.Completed {
		return nil, fmt.Errorf("completion counters disagree: app %d/%d shed, replay %d/%d shed, classes %v/%v, observed %d",
			app.Completed, app.Shed, st.Completed, st.Shed, o.v.Completed, o.v.Shed, len(done.seq))
	}
	var lat []time.Duration
	if routed {
		lat, err = done.byWindow(arrivals, admissionQuantum, func(i int) int8 { return int8(reqAt(i).QoS) })
	} else {
		lat, err = done.bySeq(arrivals, func(seq int64) int { return int(seq) - 1 })
	}
	if err != nil {
		return nil, err
	}
	o.v.Drain = st.Duration
	o.v.GPUSeconds = app.Elastic().GPUSeconds()
	setLatency(&o.v, lat, &done, func(class int8) time.Duration { return limit(cluster.QoS(class)) })
	finish(&o.v, arrivals)
	appCounts(o.count, app, planes, w.nodes, []*sim.Engine{e})
	o.count["xfer.retries"] = metrics.Faults().Retries.Load() - retries0
	if rt != nil {
		rs := rt.Stats
		o.count["router.decisions"] = rs.Decisions
		o.count["router.defers"] = rs.Defers
		o.count["router.shed"] = rs.ShedLow + rs.ShedHigh
		o.count["router.affinity_hits"] = rs.AffinityHits
		if rs.ShedLow != int64(app.ShedByClass[0]) || rs.ShedHigh != int64(app.ShedByClass[1]) {
			return nil, fmt.Errorf("router shed counters %d/%d disagree with the app's %v", rs.ShedLow, rs.ShedHigh, app.ShedByClass)
		}
	}
	if h != nil {
		o.h = h
		o.tracers = []*obs.Tracer{obs.TracerOf(e)}
		if err := addBuckets(o, bd); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// finish fills the trace span and the per-class lost counts.
func finish(v *virt, arrivals []time.Duration) {
	if n := len(arrivals); n > 0 {
		v.Span = arrivals[n-1]
	}
	for q := range v.Lost {
		v.Lost[q] = v.Attempted[q] - v.Completed[q] - v.Shed[q]
	}
}

// appCounts sums the program's own counters over the apps of one replay.
func appCounts(c map[string]int64, app *cluster.App, planes []*core.Plane, nodes int, engines []*sim.Engine) {
	for _, e := range engines {
		c["sim.events"] += e.Executed()
	}
	for _, pl := range planes {
		st := pl.Stats()
		c["core.puts"] += st.Puts
		c["core.gets"] += st.Gets
		c["core.bytes"] += st.BytesMoved
		c["core.coalesce_hits"] += st.Coalesce.Joined + st.Coalesce.Chained + st.Coalesce.ReplicaHits
		for n := 0; n < nodes; n++ {
			sm := pl.Store(n)
			c["store.evictions"] += sm.Evictions.N
			c["store.spills"] += sm.Spills.N
		}
	}
	if app != nil {
		ns := app.C.Fabric.Net.NetStats()
		c["netsim.recomputes"] += ns.Recomputes.Load()
		c["netsim.flows_touched"] += ns.FlowsTouched.Load()
		c["autoscale.scale_events"] += app.ScaleEvents()
		c["metrics.samples_retained"] += int64(app.E2E.Count() + app.XferGPU.Count() + app.XferHost.Count() +
			app.Compute.Count() + app.E2EClass[0].Count() + app.E2EClass[1].Count())
	}
}

// addBuckets folds a traced run's critical-path breakdown into o and checks
// that every request's buckets tile its end-to-end latency.
func addBuckets(o *outcome, bd *cluster.Breakdown) error {
	for i := range bd.Requests {
		rb := &bd.Requests[i]
		if rb.Sum() != rb.E2E() {
			return fmt.Errorf("request %d breakdown sums to %v, e2e %v", rb.Seq, rb.Sum(), rb.E2E())
		}
		for c, d := range rb.Buckets {
			o.buckets[c] += d
		}
	}
	return nil
}

// fleetShards is the shard count of fleet-sharded: one shard event loop per
// usable core, never more than the pods or the host's CPUs.
func fleetShards() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	if n > cluster.DefaultPods {
		n = cluster.DefaultPods
	}
	return n
}

func replayFleet(w *workload, ro runOpts) (*outcome, error) {
	runtime.GC()
	t0 := time.Now()
	arrivals := w.arrivals(ro.seed, ro.prefix)
	opt := cluster.ShardedOptions{Shards: fleetShards(), Quantum: admissionQuantum, Trace: ro.h != nil}
	return fleetReplay(t0, arrivals, opt, ro.h)
}

// fleetReplay replays arrivals over the 8-pod fleet. The replay phase is
// timed from the moment the last pod is built to the merged result, and
// set-up from t0 to that moment.
// Each pod of a traced run records into its own hooks (pods run on
// different shard goroutines); they are merged afterwards.
func fleetReplay(t0 time.Time, arrivals []time.Duration, opt cluster.ShardedOptions, h *hooks) (*outcome, error) {
	o := &outcome{count: map[string]int64{}}
	retries0 := metrics.Faults().Retries.Load()
	pods := cluster.DefaultPods
	apps := make([]*cluster.App, pods)
	planes := make([][]*core.Plane, pods)
	podHooks := make([]*hooks, pods)
	bds := make([]*cluster.Breakdown, pods)
	done := make([]doneLog, pods)
	engines := map[*sim.Engine]bool{}
	var m *meter
	st := cluster.ShardedReplay(arrivals, opt, func(pod int, e *sim.Engine) *cluster.App {
		if h != nil {
			podHooks[pod] = &hooks{}
		}
		app := deployDriving(e, podHooks[pod], &planes[pod])
		if h != nil {
			bds[pod] = app.EnableBreakdown()
		}
		// ShardedReplay installs its own OnComplete once build returns;
		// chain onto it when the pod's engine starts, before any request.
		e.Schedule(0, func() {
			merge := app.OnComplete
			app.OnComplete = func(seq int64, at, e2e time.Duration) {
				merge(seq, at, e2e)
				done[pod].add(seq, at, e2e, 0)
			}
		})
		apps[pod] = app
		engines[e] = true
		if pod == pods-1 {
			m = startMeter()
		}
		return app
	})
	if m == nil {
		return nil, errors.New("fleet built no pods")
	}
	o.setup = m.t0.Sub(t0)
	o.host = m.end()
	o.v.Attempted[0] = len(arrivals)
	// The front door routes arrival i to pod i mod pods, and a pod launches
	// its requests in arrival order, so pod launch number seq served
	// arrival pod + (seq-1)*pods.
	var all doneLog
	var lat []time.Duration
	for pod, app := range apps {
		if pp := st.PerPod[pod]; pp.Completed != app.Completed || len(done[pod].seq) != app.Completed {
			return nil, fmt.Errorf("pod %d: completion counters disagree", pod)
		}
		l, err := done[pod].bySeq(arrivals, func(seq int64) int { return pod + int(seq-1)*pods })
		if err != nil {
			return nil, fmt.Errorf("pod %d: %w", pod, err)
		}
		lat = append(lat, l...)
		all.class = append(all.class, done[pod].class...)
		o.v.Completed[0] += app.Completed
		o.v.GPUSeconds += app.Elastic().GPUSeconds()
		appCounts(o.count, app, planes[pod], app.C.Fabric.NumNodes(), nil)
	}
	for e := range engines {
		o.count["sim.events"] += e.Executed()
	}
	if st.Completed != o.v.Completed[0] {
		return nil, fmt.Errorf("merged completions %d, pods %d", st.Completed, o.v.Completed[0])
	}
	o.v.Drain = st.Duration
	setLatency(&o.v, lat, &all, func(int8) time.Duration { return chainLimit })
	finish(&o.v, arrivals)
	o.count["xfer.retries"] = metrics.Faults().Retries.Load() - retries0
	o.shardUtil = st.Util
	if h != nil {
		for pod, ph := range podHooks {
			mergeHooks(h, ph)
			if err := addBuckets(o, bds[pod]); err != nil {
				return nil, err
			}
		}
		o.h = h
		o.tracers = st.Tracers
	}
	return o, nil
}

func mergeHooks(dst, src *hooks) {
	for _, p := range [][2]*hookTimer{{&dst.route, &src.route}, {&dst.admit, &src.admit}, {&dst.pdDecide, &src.pdDecide}, {&dst.desired, &src.desired}} {
		p[0].calls += p[1].calls
		p[0].total += p[1].total
	}
	for _, d := range src.putVirt.Samples() {
		dst.putVirt.Add(d)
	}
	for _, d := range src.getVirt.Samples() {
		dst.getVirt.Add(d)
	}
}

// pdPolicy is the PDRouter policy of the ext-pd h800 cell.
var pdPolicy = router.PDPolicyConfig{
	LongPromptTokens: 1024, SaturationDepth: 6,
	MaxInflightKV: 8, SessionAffinity: true,
}

func replayLLM(w *workload, ro runOpts) (*outcome, error) {
	h := ro.h
	runtime.GC()
	t0 := time.Now()
	arrivals := w.arrivals(ro.seed, ro.prefix)
	e := sim.NewEngine()
	defer e.Close()
	if h != nil {
		obs.Attach(e)
	}
	retries0 := metrics.Faults().Retries.Load()
	var planes []*core.Plane
	c := cluster.New(e, w.spec(), w.nodes, wrapPlane(h, grouterPlane(false, &planes)))
	svc, err := c.DeployLLM(cluster.PDConfig{
		LLM:              models.MustLookupLLM("llama-7b"),
		DefaultOutTokens: 8,
		PrefillWorkers:   1,
		DecodeWorkers:    1,
		MixedWorkers:     6,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy llm: %w", err)
	}
	rt := router.NewPD(svc, pdPolicy)
	if h != nil {
		wrapPD(h, svc)
	}
	var done doneLog
	svc.OnComplete = func(seq int64, at, e2e time.Duration) { done.add(seq, at, e2e, 0) }
	o := &outcome{count: map[string]int64{}}
	var m *meter
	st, err := svc.Replay(arrivals, cluster.ReplaySpec{Quantum: admissionQuantum, RequestAt: func(i int) cluster.Request {
		if m == nil {
			m = startMeter()
		}
		o.v.Attempted[0]++
		req := cluster.Request{PromptTokens: 256, OutTokens: 8}
		if i%128 == 0 {
			req.PromptTokens = 8192
			req.Session = int64(i%16) + 1
		}
		return req
	}})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if m == nil {
		return nil, errors.New("replay admitted no request")
	}
	o.setup = m.t0.Sub(t0)
	o.host = m.end()
	o.v.Completed[0] = svc.Completed
	if st.Completed != svc.Completed || len(done.seq) != svc.Completed || svc.TTFT.Count() != svc.Completed {
		return nil, fmt.Errorf("completion counters disagree: replay %d, service %d, observed %d, ttft %d",
			st.Completed, svc.Completed, len(done.seq), svc.TTFT.Count())
	}
	lat, err := done.bySeq(arrivals, func(seq int64) int { return int(seq) - 1 })
	if err != nil {
		return nil, err
	}
	// TTFT carries no request identity, so it is timed from admission, as
	// the program records it.
	ttft := svc.TTFT.Samples()
	o.v.TTFTP99 = svc.TTFT.P(0.99)
	o.v.Drain = st.Duration
	// The service's pools are static: every GPU is provisioned for the
	// whole replay.
	o.v.GPUSeconds = float64(len(svc.PrefillPool)+len(svc.DecodePool)+len(svc.MixedPool)) * st.Duration.Seconds()
	setLatency(&o.v, lat, &done, func(int8) time.Duration { return 0 })
	o.v.Met = sort.Search(len(ttft), func(i int) bool { return ttft[i] > ttftLimit })
	finish(&o.v, arrivals)
	appCounts(o.count, nil, planes, w.nodes, []*sim.Engine{e})
	ns := c.Fabric.Net.NetStats()
	o.count["netsim.recomputes"] = ns.Recomputes.Load()
	o.count["netsim.flows_touched"] = ns.FlowsTouched.Load()
	o.count["xfer.retries"] = metrics.Faults().Retries.Load() - retries0
	o.count["metrics.samples_retained"] = int64(svc.E2E.Count() + svc.TTFT.Count() + svc.KVXfer.Count())
	o.count["router.pd_decisions"] = rt.Stats.Decisions
	o.count["pd.disaggregated"] = svc.Stats.Disaggregated
	o.count["pd.kv_bytes"] = svc.Stats.KVBytes
	o.count["pd.kv_transfers"] = svc.Stats.KVTransfers
	if h != nil {
		o.h = h
		o.tracers = []*obs.Tracer{obs.TracerOf(e)}
	}
	return o, nil
}

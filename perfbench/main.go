// Command perfbench is the repository benchmark. It replays one workload
// through the public APIs of cluster, router and the GROUTER plane and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones: what the simulator
// costs the host (set-up, replay speed, peak heap) next to what the modelled
// system delivers in virtual time (latency, goodput, GPU-seconds). The
// replay repeats for --seconds and host figures are medians over the
// repetitions. With --trace 1 one untraced and one traced replay plus
// isolated layer drives give the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"grouter/internal/cluster"
	"grouter/internal/obs"
)

// Repetitions of a timed run: at least minReps whatever --seconds says,
// and no more than maxReps.
const (
	minReps = 3
	maxReps = 50
)

// A timed run interleaves set-up passes with its replays, so that both
// sample the same stretch of host time, whose speed drifts by several
// percent over seconds on a shared machine. Each pass generates the trace,
// builds the system and replays only the first arrival, so set-up is timed
// through the replay's own path. Passes run at least minSetupPasses times
// before the first replay, and after every replay until they have taken a
// setupShare of the run's time.
const (
	setupShare     = 0.2
	minSetupPasses = 31
)

// tracedPrefix is how many arrivals of the workload's trace the per-layer
// run replays, once untraced and once traced: enough for every percentile
// check, few enough that the traced run's spans fit in memory.
const tracedPrefix = 15000

// fleetPrefix is how many arrivals of the fleet-sharded trace the
// parallel-versus-sequential check replays.
const fleetPrefix = 6000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run (driving-chain, fleet-sharded, image-routed-slo, llm-pd)")
	seed := flag.Int64("seed", 42, "seed of the generated arrival trace")
	seconds := flag.Int("seconds", 20, "host seconds the timed replays and set-up passes repeat for")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	printJSON(map[string]any{"host": map[string]any{
		"workload": w.name, "seed": *seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"gogc": envOr("GOGC", "100"), "fleet_shards": fleetShards(),
	}})

	var res *result
	var err error
	if *traced == 1 {
		res, err = layerRun(w, *seed)
	} else {
		res, err = timedRun(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		printJSON(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		return 1
	}
	printJSON(res)
	return 0
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// check applies the output checks every replay must pass.
func check(o *outcome) error {
	v := &o.v
	for q := range v.Lost {
		if v.Lost[q] != 0 {
			return fmt.Errorf("conservation: class %d attempted %d, completed %d, shed %d, lost %d",
				q, v.Attempted[q], v.Completed[q], v.Shed[q], v.Lost[q])
		}
	}
	if v.Drain > v.Span+drainSlack {
		return fmt.Errorf("backlog: drained at %v, last arrival at %v (slack %v)", v.Drain, v.Span, drainSlack)
	}
	if v.Beyond999 <= 10 {
		return fmt.Errorf("only %d samples beyond p99.9", v.Beyond999)
	}
	if !(0 < v.P50 && v.P50 <= v.P99 && v.P99 <= v.P999) {
		return fmt.Errorf("percentiles out of order: p50 %v p99 %v p99.9 %v", v.P50, v.P99, v.P999)
	}
	if v.GPUSeconds <= 0 || v.Met <= 0 {
		return fmt.Errorf("no GPU cost (%v) or no request within the limit (%d)", v.GPUSeconds, v.Met)
	}
	return nil
}

// sameRun reports how two replays of one seed differ in their virtual
// results or the program's deterministic counters.
func sameRun(a, b *outcome, what string) error {
	if a.v != b.v {
		return fmt.Errorf("%s: virtual results differ:\n  %+v\n  %+v", what, a.v, b.v)
	}
	if !reflect.DeepEqual(a.count, b.count) {
		return fmt.Errorf("%s: counters differ:\n  %v\n  %v", what, a.count, b.count)
	}
	return nil
}

// fleetCheck replays a prefix of the fleet-sharded trace with the parallel
// shard scheduler and with the sequential oracle, and requires identical
// results.
func fleetCheck(w *workload, seed int64) error {
	arrivals := w.arrivals(seed, fleetPrefix)
	opt := cluster.ShardedOptions{Shards: fleetShards(), Quantum: admissionQuantum}
	par, err := fleetReplay(time.Now(), arrivals, opt, nil)
	if err != nil {
		return err
	}
	opt.Sequential = true
	seq, err := fleetReplay(time.Now(), arrivals, opt, nil)
	if err != nil {
		return err
	}
	return sameRun(par, seq, "fleet prefix, parallel vs sequential")
}

// timedRun repeats the untraced replay for the given host time and reports
// the end-to-end metrics.
func timedRun(w *workload, seed int64, budget time.Duration) (*result, error) {
	var setup []float64
	var setupWall time.Duration
	start := time.Now()
	setUp := func() error {
		for len(setup) < minSetupPasses || float64(setupWall) < setupShare*float64(time.Since(start)) {
			t := time.Now()
			o, err := w.replay(w, runOpts{seed: seed, prefix: 1})
			if err != nil {
				return err
			}
			setup = append(setup, o.setup.Seconds())
			setupWall += time.Since(t)
		}
		return nil
	}
	var outs []*outcome
	for len(outs) < minReps || (time.Since(start) < budget && len(outs) < maxReps) {
		if err := setUp(); err != nil {
			return nil, err
		}
		o, err := w.replay(w, runOpts{seed: seed})
		if err != nil {
			return nil, err
		}
		if err := check(o); err != nil {
			return nil, err
		}
		if len(outs) > 0 {
			if err := sameRun(outs[0], o, fmt.Sprintf("repetition %d", len(outs)+1)); err != nil {
				return nil, err
			}
		}
		outs = append(outs, o)
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	if w.name == "fleet-sharded" {
		if err := fleetCheck(w, seed); err != nil {
			return nil, err
		}
	}
	var wallRate, cpuRate, heap []float64
	for _, o := range outs {
		a := float64(o.v.attempted())
		wallRate = append(wallRate, a/o.host.Wall.Seconds())
		cpuRate = append(cpuRate, a/o.host.CPU.Seconds())
		heap = append(heap, float64(o.host.PeakLive)/(1<<20))
	}
	v := outs[0].v
	printDetails(outs[0], len(outs))
	printJSON(map[string]any{"repetitions": map[string]any{
		"setup_passes": len(setup), "setup_s_quartiles": quartiles(setup), "sim_req_per_s": wallRate, "sim_req_per_cpu_s": cpuRate, "peak_heap_mb": heap,
	}})
	res := &result{
		Correct:   true,
		Attempted: v.attempted() * len(outs),
		Failed:    v.lost() * len(outs),
		Metrics: map[string]metric{
			"setup_s":           {median(setup), "s"},
			"sim_req_per_s":     {median(wallRate), "req/s"},
			"sim_req_per_cpu_s": {median(cpuRate), "req/cpu-s"},
			"peak_heap_mb":      {median(heap), "MiB"},
			"virt_p50_ms":       {ms(v.P50), "ms"},
			"virt_p99_ms":       {ms(v.P99), "ms"},
			"virt_p999_ms":      {ms(v.P999), "ms"},
			"virt_goodput_rps":  {float64(v.Met) / v.Drain.Seconds(), "req/s"},
			"virt_gpu_s":        {v.GPUSeconds, "gpu-s"},
		},
	}
	return res, nil
}

// printDetails prints the sample counts and request accounting behind the
// metrics on their own line.
func printDetails(o *outcome, reps int) {
	v := &o.v
	printJSON(map[string]any{"details": map[string]any{
		"repetitions": reps, "requests": v.attempted(), "completed": v.completed(),
		"attempted_by_class": v.Attempted, "shed_by_class": v.Shed, "lost_by_class": v.Lost,
		"latency_samples": v.completed(), "samples_beyond_p999": v.Beyond999,
		"fail_frac":        failFrac(v),
		"virt_drain_s":     v.Drain.Seconds(),
		"virt_span_s":      v.Span.Seconds(),
		"virt_ttft_p99_ms": ms(v.TTFTP99),
	}})
}

// failFrac is the share of attempted requests that did not complete; a
// shed request counts as failed.
func failFrac(v *virt) float64 {
	return float64(v.attempted()-v.completed()) / float64(v.attempted())
}

// layerRun reports the per-layer metrics. One untraced replay of the whole
// trace gives the program's counters and the Go runtime figures; a prefix of
// the trace is then replayed untraced and traced, and must give identical
// virtual results. The traced replay gives spans, hook timings and the
// critical-path breakdown; isolated layer drives give the host costs of
// single calls.
func layerRun(w *workload, seed int64) (*result, error) {
	ref, err := w.replay(w, runOpts{seed: seed})
	if err != nil {
		return nil, err
	}
	if err := check(ref); err != nil {
		return nil, err
	}
	pre, err := w.replay(w, runOpts{seed: seed, prefix: tracedPrefix})
	if err != nil {
		return nil, err
	}
	tr, err := w.replay(w, runOpts{seed: seed, prefix: tracedPrefix, h: &hooks{}})
	if err != nil {
		return nil, err
	}
	if err := check(tr); err != nil {
		return nil, err
	}
	if pre.v != tr.v {
		return nil, fmt.Errorf("traced run changed virtual results:\n  %+v\n  %+v", pre.v, tr.v)
	}
	spans, err := readSpans(tr.tracers)
	if err != nil {
		return nil, err
	}
	tr.tracers = nil
	if w.name == "fleet-sharded" {
		if err := fleetCheck(w, seed); err != nil {
			return nil, err
		}
	}
	drives, err := layerDrives(w, seed)
	if err != nil {
		return nil, err
	}
	printDetails(ref, 1)
	m := layerMetrics(ref, pre, tr, spans, drives)
	return &result{
		Correct:   true,
		Attempted: ref.v.attempted() + pre.v.attempted() + tr.v.attempted(),
		Failed:    ref.v.lost() + pre.v.lost() + tr.v.lost(),
		Metrics:   m,
	}, nil
}

// layerMetrics derives every per-layer metric. Counts that a workload
// bypasses are reported as zero, so each bypass shows in the output.
func layerMetrics(ref, pre, tr *outcome, spans *spanStats, drives map[string]float64) map[string]metric {
	a := float64(ref.v.attempted())
	ta := float64(tr.v.attempted())
	c := ref.count
	per := func(k string) float64 { return float64(c[k]) / a }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, k := range []string{"sim.switch_ns", "sim.event_ns", "netsim.start_ns", "xfer.transfer_ns",
		"pathsel.select_ns", "pathsel.choose_source_ns", "store.put_free_ns", "core.exchange_ns",
		"trace.generate_ns_per_req"} {
		set(k, drives[k], "ns")
	}
	set("core.allocs_per_exchange", drives["core.allocs_per_exchange"], "count")

	set("sim.events_per_req", per("sim.events"), "count/req")
	set("sim.host_ns_per_event", ratio(float64(ref.host.Wall.Nanoseconds()), float64(c["sim.events"])), "ns")
	var busy, wait time.Duration
	var windows int64
	for _, u := range ref.shardUtil {
		busy += u.Busy
		wait += u.Wait
		windows += u.Windows
	}
	set("sim.shard_busy_frac", ratio(busy.Seconds(), (busy+wait).Seconds()), "frac")
	set("sim.shard_wait_frac", ratio(wait.Seconds(), (busy+wait).Seconds()), "frac")
	set("sim.shard_windows", float64(windows), "count")

	set("netsim.flows_per_req", float64(spans.n["flow"])/ta, "count/req")
	set("netsim.recomputes_per_req", per("netsim.recomputes"), "count/req")
	set("netsim.flows_touched_per_recompute", ratio(float64(c["netsim.flows_touched"]), float64(c["netsim.recomputes"])), "count")
	set("xfer.retries", float64(c["xfer.retries"]), "count")

	set("store.evictions_per_kreq", 1000*per("store.evictions"), "count/kreq")
	set("store.spills_per_kreq", 1000*per("store.spills"), "count/kreq")

	set("core.put_per_req", per("core.puts"), "count/req")
	set("core.get_per_req", per("core.gets"), "count/req")
	set("core.bytes_per_req", per("core.bytes"), "B/req")
	set("core.put_virt_p99_ms", ms(tr.h.putVirt.P(0.99)), "ms")
	set("core.get_virt_p99_ms", ms(tr.h.getVirt.P(0.99)), "ms")
	set("core.coalesce_hit_frac", ratio(float64(c["core.coalesce_hits"]), float64(c["core.gets"])), "frac")

	var total time.Duration
	for _, d := range tr.buckets {
		total += d
	}
	share := func(cats ...obs.Category) float64 {
		var s time.Duration
		for _, cat := range cats {
			s += tr.buckets[cat]
		}
		return ratio(s.Seconds(), total.Seconds())
	}
	set("cluster.queue_share", share(obs.CatQueue), "frac")
	set("cluster.xfer_share", share(obs.CatSetup, obs.CatTransfer, obs.CatRetry, obs.CatMigrate), "frac")
	set("cluster.compute_share", share(obs.CatCompute), "frac")
	set("cluster.shed_share", share(obs.CatShed), "frac")
	set("cluster.defer_share", share(obs.CatDeferWait), "frac")
	set("fail_frac", failFrac(&ref.v), "frac")

	set("router.route_ns", tr.h.route.meanNS(), "ns")
	set("router.route_calls", float64(tr.h.route.calls), "count")
	set("router.admit_ns", tr.h.admit.meanNS(), "ns")
	set("router.admit_calls", float64(tr.h.admit.calls), "count")
	set("router.decisions_per_req", per("router.decisions"), "count/req")
	set("router.defers_per_req", per("router.defers"), "count/req")
	set("router.shed_frac", per("router.shed"), "frac")
	set("router.affinity_hit_frac", ratio(float64(c["router.affinity_hits"]), float64(c["router.decisions"])), "frac")
	set("router.pd_decide_ns", tr.h.pdDecide.meanNS(), "ns")
	set("router.pd_decide_calls", float64(tr.h.pdDecide.calls), "count")
	set("pd.disagg_frac", per("pd.disaggregated"), "frac")
	set("pd.kv_bytes_per_req", per("pd.kv_bytes"), "B/req")
	set("virt_ttft_p99_ms", ms(ref.v.TTFTP99), "ms")

	set("autoscale.desired_ns", tr.h.desired.meanNS(), "ns")
	set("autoscale.desired_calls", float64(tr.h.desired.calls), "count")
	set("autoscale.scale_events", float64(c["autoscale.scale_events"]), "count")
	set("metrics.samples_retained", float64(c["metrics.samples_retained"]), "count")

	set("go.allocs_per_req", float64(ref.host.AllocObjs)/a, "count/req")
	set("go.alloc_bytes_per_req", float64(ref.host.AllocBytes)/a, "B/req")
	set("go.gc_cpu_frac", ref.host.GCCPUFrac, "frac")

	set("obs.spans_per_req", float64(spans.spans)/ta, "count/req")
	for _, cat := range spanCats {
		set("obs."+cat+"_virt_ms_per_req", spans.virtUS[cat]/1000/ta, "ms/req")
	}
	set("obs.trace_overhead", ratio(tr.host.Wall.Seconds(), pre.host.Wall.Seconds()), "ratio")
	return m
}

package main

import (
	"fmt"
	"time"

	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/netsim"
	"grouter/internal/pathsel"
	"grouter/internal/sim"
	"grouter/internal/trace"
	"grouter/internal/xfer"
)

// Isolated layer drives: each calls one layer's public functions in a loop on
// the workload's topology and payload, outside any replay, and reports host
// nanoseconds per operation as the median over repeated batches.

// driveBudget is the host time each drive spends; at least driveMinBatches
// batches run whatever the budget.
const (
	driveBudget     = 300 * time.Millisecond
	driveMinBatches = 5
)

// drive runs batch(n) until the budget is spent and returns the median of
// the per-operation host times batch reports.
func drive(n int, batch func(n int) time.Duration) float64 {
	var per []float64
	start := time.Now()
	for len(per) < driveMinBatches || time.Since(start) < driveBudget {
		per = append(per, float64(batch(n).Nanoseconds())/float64(n))
	}
	return median(per)
}

var (
	gpu0 = fabric.Location{Node: 0, GPU: 0}
	gpu1 = fabric.Location{Node: 0, GPU: 1}
)

// runProc runs body as the only process of a fresh engine on the
// workload's fabric and returns the host time of the engine run.
func runProc(w *workload, body func(p *sim.Proc, f *fabric.Fabric)) time.Duration {
	e := sim.NewEngine()
	defer e.Close()
	f := fabric.New(e, w.spec(), w.nodes)
	e.Go("drive", func(p *sim.Proc) { body(p, f) })
	t0 := time.Now()
	e.Run(0)
	return time.Since(t0)
}

// layerDrives runs every isolated drive for w and returns its per-layer
// metrics.
func layerDrives(w *workload, seed int64) (map[string]float64, error) {
	out := map[string]float64{}

	out["sim.switch_ns"] = drive(20000, func(n int) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		e.Go("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
		t0 := time.Now()
		e.Run(0)
		return time.Since(t0)
	})

	out["sim.event_ns"] = drive(100000, func(n int) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		fired := 0
		fn := func() { fired++ }
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e.Schedule(time.Duration(i%1024), fn)
		}
		e.Run(0)
		return time.Since(t0)
	})

	// Four concurrent flows per round over the canonical GPU0->GPU1 path.
	out["netsim.start_ns"] = drive(2000, func(n int) time.Duration {
		return runProc(w, func(p *sim.Proc, f *fabric.Fabric) {
			links, _ := f.SinglePath(gpu0, gpu1)
			var flows [4]*netsim.Flow
			for i := 0; i < n; i += len(flows) {
				for k := range flows {
					flows[k] = f.Net.Start("drive", links, float64(w.payload), netsim.Options{})
				}
				for _, fl := range flows {
					fl.Done().Wait(p)
				}
			}
		})
	})

	var xerr error
	out["xfer.transfer_ns"] = drive(1000, func(n int) time.Duration {
		return runProc(w, func(p *sim.Proc, f *fabric.Fabric) {
			m := xfer.NewManager(f)
			links, _ := f.SinglePath(gpu0, gpu1)
			req := xfer.Request{Label: "drive", Bytes: w.payload, Paths: []xfer.Path{xfer.PathOf(f.Net, links)}}
			for i := 0; i < n; i++ {
				if _, err := m.Transfer(p, req); err != nil && xerr == nil {
					xerr = err
				}
			}
		})
	})
	if xerr != nil {
		return nil, fmt.Errorf("xfer drive: %w", xerr)
	}

	{
		e := sim.NewEngine()
		f := fabric.New(e, w.spec(), w.nodes)
		sel := pathsel.New(f.Topo(0))
		out["pathsel.select_ns"] = drive(20000, func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if a := sel.Select(0, 1, 0); a != nil {
					sel.Release(a)
				}
			}
			return time.Since(t0)
		})
		cands := []pathsel.SourceCandidate{
			{Loc: fabric.Location{Node: 0, GPU: 1}},
			{Loc: fabric.Location{Node: 0, GPU: 2}, Pending: true},
			{Loc: fabric.Location{Node: 0, GPU: 3}, Chainers: 1},
			{Loc: fabric.Location{Node: 0, GPU: 4}},
		}
		dst := fabric.Location{Node: 0, GPU: 5}
		out["pathsel.choose_source_ns"] = drive(50000, func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				pathsel.ChooseSource(f, dst, cands)
			}
			return time.Since(t0)
		})
		e.Close()
	}

	// Store Put+Free on one GPU after a warm-up that fills the store's
	// per-function arrival windows, timed inside the only process.
	var serr error
	out["store.put_free_ns"] = drive(5000, func(n int) time.Duration {
		var d time.Duration
		runProc(w, func(p *sim.Proc, f *fabric.Fabric) {
			sm := core.New(f, core.FullConfig()).Store(0)
			ctx := dataplane.FnCtx{Fn: "drive", Workflow: "drive", Loc: gpu0}
			put := func() {
				it, err := sm.Put(p, &ctx, 0, w.payload)
				if err != nil {
					serr = err
					return
				}
				sm.Free(it)
			}
			for i := 0; i < 256; i++ {
				put()
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				put()
			}
			d = time.Since(t0)
		})
		return d
	})
	if serr != nil {
		return nil, fmt.Errorf("store drive: %w", serr)
	}

	// One GPU-to-GPU exchange through the GROUTER plane: Put on GPU0, Get
	// on GPU1, Free. Time and allocations are taken inside the only
	// process, after the plane is built.
	var cerr error
	var allocs []float64
	out["core.exchange_ns"] = drive(500, func(n int) time.Duration {
		var d time.Duration
		runProc(w, func(p *sim.Proc, f *fabric.Fabric) {
			pl := core.New(f, core.FullConfig())
			src := dataplane.FnCtx{Fn: "drive-src", Workflow: "drive", Loc: gpu0}
			dst := dataplane.FnCtx{Fn: "drive-dst", Workflow: "drive", Loc: gpu1}
			rt0 := readRuntime()
			t0 := time.Now()
			for i := 0; i < n; i++ {
				ref, err := pl.Put(p, &src, w.payload)
				if err == nil {
					err = pl.Get(p, &dst, ref)
				}
				if err != nil {
					cerr = err
					return
				}
				pl.Free(ref)
			}
			d = time.Since(t0)
			allocs = append(allocs, float64(readRuntime().allocObjs-rt0.allocObjs)/float64(n))
		})
		return d
	})
	if cerr != nil {
		return nil, fmt.Errorf("core drive: %w", cerr)
	}
	out["core.allocs_per_exchange"] = median(allocs)

	// trace.Generate of the workload's own trace, per generated request.
	spec := w.traceSpec(seed)
	var gen []float64
	for start := time.Now(); len(gen) < driveMinBatches || time.Since(start) < driveBudget; {
		t0 := time.Now()
		arr := trace.Generate(spec)
		gen = append(gen, float64(time.Since(t0).Nanoseconds())/float64(max(len(arr), 1)))
	}
	out["trace.generate_ns_per_req"] = median(gen)
	return out, nil
}

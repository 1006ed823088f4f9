package main

import (
	"time"

	"grouter/internal/autoscale"
	"grouter/internal/cluster"
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/metrics"
	"grouter/internal/scheduler"
	"grouter/internal/sim"
)

// The traced run wraps the calls into each layer from outside the program.
//
// In the cooperative discrete-event engine a blocking call (Put, Get) hands
// control to every other process the engine runs before it returns, so host
// time around it is not that layer's cost. Blocking calls are therefore
// timed in virtual time; host time is taken only around the non-blocking
// hooks (route, admit, PD decide, scaler).

// hookTimer accumulates host time and calls of one non-blocking hook.
type hookTimer struct {
	calls int64
	total time.Duration
}

func (h *hookTimer) meanNS() float64 {
	if h.calls == 0 {
		return 0
	}
	return float64(h.total.Nanoseconds()) / float64(h.calls)
}

// hooks holds everything the traced run records through its wrappers.
type hooks struct {
	route, admit, pdDecide, desired hookTimer
	// putVirt and getVirt are the virtual durations of each wrapped
	// data-plane Put and Get.
	putVirt, getVirt metrics.Latency
}

// timedPlane is a dataplane.Plane that records the virtual duration of
// every Put and Get it forwards.
type timedPlane struct {
	dataplane.Plane
	h *hooks
}

func (t *timedPlane) Put(p *sim.Proc, ctx *dataplane.FnCtx, bytes int64) (dataplane.DataRef, error) {
	t0 := p.Now()
	ref, err := t.Plane.Put(p, ctx, bytes)
	t.h.putVirt.Add(p.Now() - t0)
	return ref, err
}

func (t *timedPlane) Get(p *sim.Proc, ctx *dataplane.FnCtx, ref dataplane.DataRef) error {
	t0 := p.Now()
	err := t.Plane.Get(p, ctx, ref)
	t.h.getVirt.Add(p.Now() - t0)
	return err
}

// timedScaler times each call of an elastic pool's scaling strategy.
type timedScaler struct {
	autoscale.Autoscaler
	h *hookTimer
}

func (s timedScaler) Desired(m autoscale.PoolMetrics) int {
	t0 := time.Now()
	n := s.Autoscaler.Desired(m)
	s.h.total += time.Since(t0)
	s.h.calls++
	return n
}

// wrapPlane returns mk with its plane wrapped when h is non-nil.
func wrapPlane(h *hooks, mk func(*fabric.Fabric) dataplane.Plane) func(*fabric.Fabric) dataplane.Plane {
	if h == nil {
		return mk
	}
	return func(f *fabric.Fabric) dataplane.Plane { return &timedPlane{Plane: mk(f), h: h} }
}

// wrapScaler times cfg's scaler when h is non-nil.
func wrapScaler(h *hooks, cfg cluster.ElasticConfig) cluster.ElasticConfig {
	if h != nil {
		cfg.Scaler = timedScaler{Autoscaler: cfg.Scaler, h: &h.desired}
	}
	return cfg
}

// wrapRouter times the app's installed Route and Admit hooks.
func wrapRouter(h *hooks, app *cluster.App) {
	if route := app.Route; route != nil {
		app.Route = func(si scheduler.StageInst, req cluster.RouteInfo, pool []fabric.Location) (int, bool) {
			t0 := time.Now()
			i, ok := route(si, req, pool)
			h.route.total += time.Since(t0)
			h.route.calls++
			return i, ok
		}
	}
	if admit := app.Admit; admit != nil {
		app.Admit = func(req cluster.Request, waited time.Duration) (cluster.AdmitAction, time.Duration) {
			t0 := time.Now()
			a, d := admit(req, waited)
			h.admit.total += time.Since(t0)
			h.admit.calls++
			return a, d
		}
	}
}

// wrapPD times the LLM service's installed PD routing decision.
func wrapPD(h *hooks, svc *cluster.LLMService) {
	decide := svc.Route
	svc.Route = func(req *cluster.Request, seq int64) cluster.PDDecision {
		t0 := time.Now()
		d := decide(req, seq)
		h.pdDecide.total += time.Since(t0)
		h.pdDecide.calls++
		return d
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"h2ds/internal/api"
	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/registry"
	"h2ds/internal/sample"
	"h2ds/internal/serve"
)

const (
	servedName   = "served"
	readVectors  = 8                  // distinct request vectors, each with an in-process reference
	readTol      = 1e-14              // HTTP y vs in-process Apply, relative to 1 + |ref|
	applyTimeout = 5 * time.Second    // h2serve's default per-request deadline
	spanHeader   = "X-Perfbench-Span" // carries "op.parent" from a client span to the server span
	buildWait    = 60 * time.Second   // bound on one tenant build
	stopTimeout  = 10 * time.Second   // graceful HTTP shutdown bound
	accountSlack = 0.02               // api.self_ms may dip this share of api.handler_ms below 0

	// serve-mixed writer: a create is due every writerPeriod; even cycles
	// reuse one shared geometry (a construction-cache hit), odd cycles a
	// fresh one (a miss).
	writerPeriod = 500 * time.Millisecond
	sharedOffset = 1000
	freshOffset  = 2000
)

// stack is the in-process HTTP service: a registry mounted with
// api.MountLimits behind a loopback TCP listener, and a client for it.
type stack struct {
	reg    *registry.Registry
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	tr     *tracer
}

func startStack(tr *tracer, buildWorkers, conns int) (*stack, error) {
	reg := registry.New(registry.Config{Workers: buildWorkers})
	mux := http.NewServeMux()
	api.MountLimits(mux, reg, applyTimeout, api.Limits{})
	var h http.Handler = mux
	if tr != nil {
		h = tracedHandler(mux, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &stack{
		reg: reg, srv: &http.Server{Handler: h}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), tr: tr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for its loop to return, and drains the
// registry.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	s.reg.Close()
	return err
}

// tracedHandler records an api.handler span around the mounted mux, as a
// child of the client span named in the request header.
func tracedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var op, parent int64
		fmt.Sscanf(req.Header.Get(spanHeader), "%d.%d", &op, &parent) // absent: a root span
		h := tr.begin("api.handler", op, parent)
		next.ServeHTTP(w, req)
		h.end()
	})
}

// do sends one request with a JSON body and returns the response body,
// requiring the wanted status.
func (s *stack) do(method, path string, body any, want int, parent handle) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		js, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(js)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent.t != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", parent.s.Op, parent.s.ID))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	return out, nil
}

// read is one client apply: a POST round trip whose y must match the
// in-process reference. It returns the round-trip latency.
func (s *stack) read(b, ref []float64) (time.Duration, error) {
	h := s.tr.begin("loadgen.request", 0, 0)
	t0 := time.Now()
	raw, err := s.do(http.MethodPost, "/matrices/"+servedName+"/apply", api.ApplyRequest{B: b}, http.StatusOK, h)
	var resp api.ApplyResponse
	if err == nil {
		err = json.Unmarshal(raw, &resp)
	}
	lat := time.Since(t0)
	h.end()
	if err != nil {
		return 0, err
	}
	return lat, matches(resp.Y, ref)
}

// matches applies the serve bench's gate: every entry within readTol of the
// reference, relative to 1 + |ref|.
func matches(y, ref []float64) error {
	if len(y) != len(ref) {
		return fmt.Errorf("y has %d entries, want %d", len(y), len(ref))
	}
	for i, v := range ref {
		if d := math.Abs(y[i]-v) / (1 + math.Abs(v)); !(d <= readTol) {
			return fmt.Errorf("y[%d] = %v, in-process Apply gives %v", i, y[i], v)
		}
	}
	return nil
}

// tenant records one registry build seen from outside.
type tenant struct {
	buildS, dueS, lateMS, queueMS float64
}

// build creates a tenant over HTTP, waits for it to be ready, and reads its
// registry timestamps. due is when the create was scheduled.
func (s *stack) build(name string, spec registry.BuildSpec, due time.Time, root handle) (tenant, error) {
	t := tenant{lateMS: ms(time.Since(due))}
	c0 := time.Now()
	h := s.tr.begin("registry.create", root.s.Op, root.s.ID)
	_, err := s.do(http.MethodPost, "/matrices", api.CreateRequest{Name: name, Spec: spec}, http.StatusAccepted, h)
	h.end()
	if err != nil {
		return t, err
	}
	h = s.tr.begin("registry.wait", root.s.Op, root.s.ID)
	ctx, cancel := context.WithTimeout(context.Background(), buildWait)
	err = s.reg.WaitReady(ctx, name)
	cancel()
	ready := time.Now()
	h.end()
	if err != nil {
		return t, err
	}
	inf, ok := s.reg.Get(name)
	if !ok || inf.State != registry.StateReady || inf.Phases == nil {
		return t, fmt.Errorf("tenant %s not ready after WaitReady", name)
	}
	t.buildS = ready.Sub(c0).Seconds()
	t.dueS = ready.Sub(due).Seconds()
	t.queueMS = ms(inf.ReadyAt.Sub(inf.CreatedAt)) - float64(inf.Phases.TotalNS)/1e6
	return t, nil
}

// remove deletes a tenant over HTTP.
func (s *stack) remove(name string, root handle) error {
	h := s.tr.begin("registry.delete", root.s.Op, root.s.ID)
	defer h.end()
	_, err := s.do(http.MethodDelete, "/matrices/"+name, nil, http.StatusNoContent, h)
	return err
}

// runServe drives the HTTP stack with closed-loop readers of one coulomb
// tenant: on-the-fly with nproc readers (serve-otf), or stored with
// nproc−1 readers beside an open-loop writer (serve-mixed).
func runServe(r *run, mixed bool) error {
	mode, mem, readers := core.OnTheFly, "otf", r.nproc
	if mixed {
		mode, mem, readers = core.Normal, "normal", max(1, r.nproc-1)
	}
	k := kernel.Coulomb{}
	r.ctx.N, r.ctx.Mode, r.ctx.Kernel, r.ctx.Clients = serveN, mem, k.Name(), readers
	cfg := core.Config{
		Kind: core.DataDriven, Mode: mode, Tol: tol,
		Workers: r.nproc, Sampler: sample.AnchorNet{},
	}
	if _, err := r.setupBuilds(pointset.Cube(serveN, 3, r.seed), k, cfg); err != nil {
		return err
	}

	s, err := startStack(r.tr, min(2, r.nproc), readers+1)
	if err != nil {
		return err
	}
	err = r.serveOn(s, mixed, readers, mem)
	return errors.Join(err, s.close())
}

func (r *run) serveOn(s *stack, mixed bool, readers int, mem string) error {
	spec := registry.BuildSpec{
		Kernel: "coulomb", Dist: "cube", N: serveN, Dim: 3, Tol: tol, Mem: mem,
		Sampler: "anchornet", Seed: r.seed, Workers: r.nproc,
	}
	root := r.tr.begin("registry.cycle", 0, 0)
	served, err := s.build(servedName, spec, time.Now(), root)
	root.end()
	r.op(err)
	if err != nil {
		return err
	}
	m, ok := s.reg.Matrix(servedName)
	if !ok {
		return fmt.Errorf("served tenant vanished")
	}
	r.metrics["mem_mib"] = float64(m.Memory().Total()) / (1 << 20)

	vecs := make([][]float64, readVectors)
	refs := make([][]float64, readVectors)
	for i := range vecs {
		vecs[i] = randVec(serveN, r.seed+2+int64(i))
		refs[i] = m.Apply(vecs[i])
	}
	for c := 0; c < 2*readers; c++ { // warm the connections and the batcher
		_, err := s.read(vecs[c%readers], refs[c%readers])
		r.op(err)
	}
	writerSpec := func(i int) registry.BuildSpec {
		sp := spec
		sp.N = writerN
		sp.Kernel = []string{"coulomb", "exp", "gaussian"}[i%3]
		sp.Seed = r.seed + sharedOffset
		if i%2 == 1 {
			sp.Seed = r.seed + freshOffset + int64(i)
		}
		return sp
	}
	if mixed {
		// Seed the construction cache with the shared writer geometry, so
		// exactly the even cycles hit it.
		root := r.tr.begin("registry.cycle", 0, 0)
		_, err := s.build("warm", writerSpec(0), time.Now(), root)
		if err == nil {
			err = s.remove("warm", root)
		}
		root.end()
		r.op(err)
	}

	serveBefore := instanceStats(s.reg)
	regBefore := s.reg.Stats()
	sweepBefore := m.SweepStats()
	start := time.Now()

	var (
		wg      sync.WaitGroup
		count   atomic.Int64
		perRead = make([][]float64, readers) // latencies, ms, by reader
		ends    = make([]time.Duration, readers)
		tenants []tenant
	)
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < r.deadline || count.Load() < int64(minSamples(0.9)); i++ {
				v := (c + i*readers) % readVectors
				lat, err := s.read(vecs[v], refs[v])
				r.op(err)
				if err == nil {
					perRead[c] = append(perRead[c], ms(lat))
					count.Add(1)
				}
			}
			ends[c] = time.Since(start)
		}(c)
	}
	if mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Duration(i)*writerPeriod < r.deadline; i++ {
				due := start.Add(time.Duration(i) * writerPeriod)
				time.Sleep(time.Until(due))
				name := fmt.Sprintf("w%d", i)
				root := r.tr.begin("registry.cycle", 0, 0)
				t, err := s.build(name, writerSpec(i), due, root)
				if err == nil {
					tenants = append(tenants, t)
				}
				r.op(errors.Join(err, s.remove(name, root)))
				root.end()
			}
		}()
	}
	wg.Wait()
	var lats []float64
	var readWall time.Duration
	for c := range perRead {
		lats = append(lats, perRead[c]...)
		readWall = max(readWall, ends[c])
	}

	serveAfter := instanceStats(s.reg)
	regAfter := s.reg.Stats()
	sweepAfter := m.SweepStats()

	r.metrics["rps"] = float64(len(lats)) / readWall.Seconds()
	if err := r.latencies(lats); err != nil {
		return err
	}

	// Batcher layers: deltas of the instance's serve.Stats over the
	// measured phase.
	queueMS := histDelta(serveBefore.QueueWaitUS, serveAfter.QueueWaitUS) / 1e3
	flushMS := histDelta(serveBefore.FlushUS, serveAfter.FlushUS) / 1e3
	r.metrics["serve.queue_wait_ms"] = queueMS
	r.metrics["serve.flush_ms"] = flushMS
	r.metrics["serve.batch_occupancy"] = histDelta(serveBefore.BatchOccupancy, serveAfter.BatchOccupancy)
	r.metrics["serve.dropped"] = float64(dropped(serveAfter) - dropped(serveBefore))
	applyLayers(m, sweepBefore, sweepAfter, flushMS, r.metrics)

	hits := regAfter.BuildCacheHits - regBefore.BuildCacheHits
	misses := regAfter.BuildCacheMisses - regBefore.BuildCacheMisses
	r.metrics["sample.cache_hit_ratio"] = 0
	if hits+misses > 0 {
		r.metrics["sample.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	r.metrics["registry.builds_failed"] = float64(regAfter.BuildsFailed)
	if !mixed {
		tenants = []tenant{served}
	}
	if len(tenants) == 0 {
		return fmt.Errorf("no writer tenant became ready")
	}
	col := func(f func(tenant) float64) float64 {
		xs := make([]float64, len(tenants))
		for i, t := range tenants {
			xs[i] = f(t)
		}
		return median(xs)
	}
	r.metrics["registry.build_s"] = col(func(t tenant) float64 { return t.buildS })
	r.metrics["registry.build_due_s"] = col(func(t tenant) float64 { return t.dueS })
	r.metrics["registry.late_ms"] = col(func(t tenant) float64 { return t.lateMS })
	r.metrics["registry.queue_ms"] = col(func(t tenant) float64 { return t.queueMS })
	if mixed {
		r.ctx.Writers = 1
		r.note("build_p50_s %.4f s over %d writer cycles (create due → ready; lateness p50 %.3f ms), cache hit ratio %.3f",
			r.metrics["registry.build_due_s"], len(tenants), r.metrics["registry.late_ms"], r.metrics["sample.cache_hit_ratio"])
	}

	for _, name := range []string{"solver.solve_s", "solver.iterations", "solver.self_ms"} {
		r.metrics[name] = 0 // no solve here
	}
	if r.tr != nil {
		spans := r.tr.since(start)
		handler := meanDurMS(spans, "api.handler", "loadgen.request")
		r.metrics["api.handler_ms"] = handler
		r.metrics["api.self_ms"] = handler - queueMS - flushMS
		verdict := "within"
		if handler-queueMS-flushMS < -accountSlack*handler {
			verdict = "OUTSIDE"
		}
		r.note("accounting: api.handler %.4f ms = queue wait %.4f + flush %.4f + self %.4f, %s the %.0f%% slack",
			handler, queueMS, flushMS, handler-queueMS-flushMS, verdict, 100*accountSlack)
		r.metrics["loadgen.transport_ms"] = meanSelfMS(spans, "loadgen.request")
	}
	return nil
}

// meanDurMS is the mean duration, in ms, of the spans named name whose
// parent is a span named parentName.
func meanDurMS(spans []span, name, parentName string) float64 {
	names := make(map[int64]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	var sum int64
	var n int
	for _, s := range spans {
		if s.Name == name && names[s.Parent] == parentName {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

func instanceStats(reg *registry.Registry) serve.Stats {
	inf, ok := reg.Get(servedName)
	if !ok || inf.Serve == nil {
		return serve.Stats{}
	}
	return *inf.Serve
}

// histDelta is the mean of the observations a histogram gained between two
// snapshots.
func histDelta(a, b serve.HistSnapshot) float64 {
	n := b.Count - a.Count
	if n <= 0 {
		return 0
	}
	return (b.Mean*float64(b.Count) - a.Mean*float64(a.Count)) / float64(n)
}

func dropped(s serve.Stats) int64 {
	return s.DroppedQueueFull + s.DroppedDeadline + s.DroppedCanceled + s.DroppedClosed
}

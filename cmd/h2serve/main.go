// Command h2serve exposes a fleet of H² matrices as an HTTP matvec service.
// At startup it builds (or loads with -load) a "default" instance from the
// same knobs as h2info, then serves concurrent products through per-instance
// request batchers (internal/serve) managed by a multi-tenant registry
// (internal/registry): named instances, async build queue, zero-downtime
// hot-swap rebuilds, and an optional global memory budget with LRU eviction
// and disk spill.
//
// Endpoints:
//
//	POST   /matrices              {"name": "x", "spec": {"n": 5000, ...}}
//	                              create or hot-swap-rebuild an instance (202)
//	GET    /matrices              instances with state, progress, counters
//	GET    /matrices/{name}       one instance
//	POST   /matrices/{name}/apply {"b": [...]} -> {"y": [...]}
//	DELETE /matrices/{name}       remove an instance
//	POST   /apply                 alias for /matrices/default/apply
//	GET    /stats                 default-instance shape + registry counters
//	GET    /healthz               liveness probe
//
// Apply requests carry a per-request deadline (-timeout) and answer 503 on
// queue-full backpressure. SIGINT/SIGTERM shut down gracefully: the listener
// stops, every instance's batcher drains its admitted requests, in-flight
// builds are cancelled, and — with -spill set — Ready instances are
// persisted for the next start.
//
// Usage:
//
//	h2serve -n 20000 -kernel coulomb -mem otf -addr :8080
//	h2serve -n 20000 -mem hybrid -storage 64    # cap stored blocks at 64 MiB
//	h2serve -load matrix.h2
//	curl -s localhost:8080/apply -d '{"b": [0.1, 0.2, ...]}'
//	curl -s localhost:8080/matrices -d '{"name":"g","spec":{"kernel":"gaussian","n":5000}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"h2ds/internal/api"
	"h2ds/internal/kernel"
	"h2ds/internal/registry"
	"h2ds/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "h2serve: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	load := flag.String("load", "", "serialized matrix to serve as \"default\" (kernel resolved from the stream); skips the build")
	save := flag.String("save", "", "write the built default matrix to this path before serving")

	n := flag.Int("n", 20000, "number of points (build mode)")
	dim := flag.Int("dim", 3, "dimension (cube distribution only)")
	dist := flag.String("dist", "cube", "distribution: cube, sphere, dino, ball, mixture")
	kern := flag.String("kernel", "coulomb", "kernel: "+strings.Join(kernel.Names(), ", ")+"; with -load, checked against the stream")
	tol := flag.Float64("tol", 1e-6, "target relative accuracy")
	reltol := flag.Float64("reltol", 0, "error-controlled build: derive ranks and sample sizes from this tolerance and report an a-posteriori error estimate (0 = fixed-parameter build via -tol)")
	basis := flag.String("basis", "dd", "construction: dd (data-driven) or interp")
	mem := flag.String("mem", "otf", "memory mode: normal, otf, or hybrid")
	storageMB := flag.Int64("storage", 0, "hybrid stored-block budget in MiB (-mem hybrid): the best assembly-cost-per-byte blocks are stored, the rest evaluated on the fly")
	leaf := flag.Int("leaf", 0, "leaf size (0 = default)")
	threads := flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	samplerName := flag.String("sampler", "anchornet", "sampler: anchornet, fps, random")
	seed := flag.Int64("seed", 1, "workload seed")

	maxBatch := flag.Int("maxbatch", 16, "flush a batch at this many pending requests")
	window := flag.Duration("window", 500*time.Microsecond, "flush a partial batch this long after its first request")
	queue := flag.Int("queue", 0, "queue limit (0 = 4x maxbatch)")
	block := flag.Bool("block", false, "block at queue limit instead of failing fast with 503")
	flushers := flag.Int("flushers", 2, "concurrent flush workers")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline for apply endpoints (0 = none)")

	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the service address")
	buildCache := flag.Int("buildcache", 0, "construction-cache entries shared across tenant builds: same-geometry tenants and hot-swap rebuilds reuse the tree + sampling hierarchy (0 = default, negative = disable)")
	builders := flag.Int("builders", 2, "concurrent build workers for POST /matrices")
	buildQueue := flag.Int("buildqueue", 8, "accepted-but-not-started build limit")
	budgetMB := flag.Int64("membudget", 0, "total matrix memory budget in MiB across ready instances (0 = unlimited); exceeding it evicts the least-recently-applied instance")
	spill := flag.String("spill", "", "directory for evicted instances' generators; evicted instances rehydrate lazily on their next apply, and ready instances persist here at shutdown")
	maxBodyMB := flag.Int64("maxbody", 0, "JSON request body cap in MiB, answered with 413 over the cap (0 = 64)")
	maxUploadMB := flag.Int64("maxupload", 0, "dense-upload body cap in MiB for POST /matrices/{name}/data (0 = 8192)")
	flag.Parse()

	// The default instance's spec, straight from the flags.
	spec := registry.BuildSpec{
		Kernel: *kern, Dist: *dist, N: *n, Dim: *dim, Tol: *tol, RelTol: *reltol,
		Basis: *basis, Mem: *mem, Leaf: *leaf, Sampler: *samplerName,
		Seed: *seed, Workers: *threads, StorageBudget: *storageMB << 20,
	}
	if *load != "" {
		// The stream records its kernel; -kernel is only an override check,
		// applied below once the matrix is loaded. The worker count is a
		// host preference the stream never carries, so -threads still
		// applies to the loaded instance.
		spec = registry.BuildSpec{Path: *load, Workers: *threads}
	}

	reg := registry.New(registry.Config{
		Workers:      *builders,
		QueueDepth:   *buildQueue,
		MemBudget:    *budgetMB << 20,
		SpillDir:     *spill,
		CacheEntries: *buildCache,
		Batch: serve.Config{
			MaxBatch:    *maxBatch,
			FlushWindow: *window,
			QueueLimit:  *queue,
			Block:       *block,
			Flushers:    *flushers,
		},
	})
	defer reg.Close()

	t0 := time.Now()
	if err := reg.Create(DefaultInstance, spec); err != nil {
		return err
	}
	if err := reg.WaitReady(context.Background(), DefaultInstance); err != nil {
		return err
	}
	m, ok := reg.Matrix(DefaultInstance)
	if !ok {
		return errors.New("default instance vanished during startup")
	}
	if *load != "" {
		kernelFlagSet := false
		flag.Visit(func(f *flag.Flag) { kernelFlagSet = kernelFlagSet || f.Name == "kernel" })
		if kernelFlagSet && m.Kern.Name() != *kern {
			return fmt.Errorf("%s was built with kernel %q, but -kernel %q was requested", *load, m.Kern.Name(), *kern)
		}
		fmt.Printf("h2serve: loaded %s: %s\n", *load, m.Summary().Line())
	} else {
		fmt.Printf("h2serve: built %s dist=%s in %v\n",
			m.Summary().Line(), *dist, time.Since(t0).Round(time.Millisecond))
		if *save != "" {
			f, err := os.Create(*save)
			if err != nil {
				return err
			}
			if _, err := m.WriteTo(f); err != nil {
				f.Close()
				return fmt.Errorf("save %s: %w", *save, err)
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("h2serve: wrote %s\n", *save)
		}
	}

	// Dense uploads land next to the spill files when a spill directory is
	// configured (one durable volume); otherwise the api default (temp dir).
	lim := api.Limits{JSONBody: *maxBodyMB << 20, Upload: *maxUploadMB << 20, DataDir: *spill}
	srv := &http.Server{Addr: *addr, Handler: newServer(reg, *timeout, lim, *pprofOn)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("h2serve: listening on %s (maxbatch=%d window=%v queue=%d block=%v flushers=%d builders=%d membudget=%dMiB)\n",
		*addr, *maxBatch, *window, *queue, *block, *flushers, *builders, *budgetMB)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		reg.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("h2serve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	// Drain every instance's batcher, cancel in-flight builds, persist Ready
	// instances when -spill is set.
	reg.Close()
	st := reg.Stats()
	fmt.Printf("h2serve: %d builds (%d ok, %d failed), %d evictions, %d swap drains\n",
		st.BuildsStarted, st.BuildsSucceeded, st.BuildsFailed, st.Evictions, st.SwapDrains)
	return err
}

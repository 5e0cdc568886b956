package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"h2ds/internal/api"
	"h2ds/internal/cluster"
	"h2ds/internal/par"
	"h2ds/internal/registry"
	"h2ds/internal/serve"
)

// ClusterRun is one measured routing path in the cluster experiment.
type ClusterRun struct {
	N        int    `json:"n"`
	Nodes    int    `json:"nodes"`
	Replicas int    `json:"replicas"`
	Path     string `json:"path"` // direct-apply, routed-apply, sharded-apply

	MedianNS     int64   `json:"median_ns"`
	P99NS        int64   `json:"p99_ns"`
	ThroughputRS float64 `json:"throughput_rps"` // under Conc concurrent clients
}

// clusterN picks the tenant size for the scale.
func clusterN(scale string) int {
	switch scale {
	case "tiny":
		return 2000
	case "medium":
		return 20000
	case "paper":
		return 40000
	default: // small
		return 8000
	}
}

// ClusterBench measures the multi-node serving stack end to end: three
// in-process nodes behind a router, one replicated tenant, and three routing
// paths — a direct single-node apply (the no-cluster baseline), the routed
// apply rotating over owner+replica, and the sharded scatter/gather apply.
// Every HTTP hop is real (httptest listeners on loopback), so the deltas
// are the routing/replication/scatter overheads, not simulations. Results
// land in the cluster section of BENCH_matvec.json.
func ClusterBench(opt Options) error {
	out := opt.out()
	k, err := opt.kernel()
	if err != nil {
		return err
	}
	n := clusterN(opt.Scale)
	workers := par.Resolve(opt.Threads)
	const nodesN, replicas = 3, 2
	fmt.Fprintf(out, "\n# cluster: routed apply across %d nodes (kernel=%s n=%d workers=%d conc=%d)\n",
		nodesN, k.Name(), n, workers, opt.conc())

	// Three nodes + router, all in-process.
	regs := make([]*registry.Registry, nodesN)
	members := make([]string, nodesN)
	srvs := make([]*httptest.Server, nodesN)
	for i := range regs {
		regs[i] = registry.New(registry.Config{Workers: 1, Batch: serve.Config{Flushers: 2}})
		srvs[i] = httptest.NewServer(cluster.NodeHandler(regs[i], 60*time.Second, api.Limits{}))
		members[i] = srvs[i].URL
		defer regs[i].Close()
		defer srvs[i].Close()
	}
	rt := cluster.NewRouter(cluster.RouterConfig{Members: members, Replicas: replicas, Timeout: 120 * time.Second})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const name = "bench"
	spec := registry.BuildSpec{
		Kernel: k.Name(), Dist: "cube", N: n, Dim: 3, Tol: 1e-6,
		Mem: "otf", Leaf: leafSizeFor(n), Seed: opt.seed(), Workers: opt.Threads,
		Sampler: func() string {
			if opt.Sampler != "" {
				return opt.Sampler
			}
			return "anchornet"
		}(),
	}
	body, _ := json.Marshal(api.CreateRequest{Name: name, Spec: spec})
	resp, err := http.Post(front.URL+"/matrices", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("cluster bench: create status %d", resp.StatusCode)
	}
	owner, err := waitReplicated(front.URL, name, replicas-1, 10*time.Minute)
	if err != nil {
		return err
	}

	b := randVec(n, opt.seed()+7)
	applyBody, _ := json.Marshal(api.ApplyRequest{B: b})
	shardBody, _ := json.Marshal(struct {
		B       []float64 `json:"b"`
		NShards int       `json:"nshards"`
	}{b, replicas})

	paths := []struct {
		label string
		url   string
		body  []byte
	}{
		{"direct-apply", owner + "/matrices/" + name + "/apply", applyBody},
		{"routed-apply", front.URL + "/matrices/" + name + "/apply", applyBody},
		{"sharded-apply", front.URL + "/matrices/" + name + "/shardapply", shardBody},
	}

	tb := newTable(out, "routing-path latency and throughput",
		"path", "median_ms", "p99_ms", "rps")
	runs := make([]ClusterRun, 0, len(paths))
	for _, p := range paths {
		run, err := measureClusterPath(p.url, p.body, opt)
		if err != nil {
			return fmt.Errorf("cluster bench: %s: %w", p.label, err)
		}
		run.N, run.Nodes, run.Replicas, run.Path = n, nodesN, replicas, p.label
		runs = append(runs, run)
		tb.row(p.label,
			fmt.Sprintf("%.2f", float64(run.MedianNS)/1e6),
			fmt.Sprintf("%.2f", float64(run.P99NS)/1e6),
			fmt.Sprintf("%.1f", run.ThroughputRS))
	}
	tb.flush()

	return mergeReport(opt, k.Name(), workers, "cluster", func(rep *MatvecReport) { rep.Cluster = runs })
}

// waitReplicated polls the router until the named instance has the wanted
// replica count installed, returning the owner URL.
func waitReplicated(front, name string, want int, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(front + "/cluster/route/" + name)
		if err != nil {
			return "", err
		}
		var ri cluster.RouteInfo
		err = json.NewDecoder(resp.Body).Decode(&ri)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if len(ri.Replicated) >= want {
			return ri.Owner, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("replication of %q timed out: %d of %d replicas", name, len(ri.Replicated), want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// measureClusterPath fires opt.conc() concurrent clients, each issuing reps
// sequential requests at the path, and reports the latency distribution and
// aggregate throughput.
func measureClusterPath(url string, body []byte, opt Options) (ClusterRun, error) {
	// Warm-up: pages generators, settles batcher workspaces and connections.
	if err := postOnce(url, body); err != nil {
		return ClusterRun{}, err
	}
	conc := opt.conc()
	reps := opt.reps()
	lat := make([][]int64, conc)
	var firstErr error
	var errMu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]int64, 0, reps)
			for i := 0; i < reps; i++ {
				r0 := time.Now()
				if err := postOnce(url, body); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				lat[c] = append(lat[c], time.Since(r0).Nanoseconds())
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	if firstErr != nil {
		return ClusterRun{}, firstErr
	}
	var all []int64
	for _, ls := range lat {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return ClusterRun{
		MedianNS:     all[len(all)/2],
		P99NS:        all[len(all)*99/100],
		ThroughputRS: float64(len(all)) / wall.Seconds(),
	}, nil
}

func postOnce(url string, body []byte) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ar api.ApplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if len(ar.Y) == 0 {
		return fmt.Errorf("empty product")
	}
	return nil
}

package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/registry"
)

// The key sets GET /matrices/{name} and GET /stats put on the wire. Clients
// (the cluster router, perfbench, dashboards) decode these objects by key, so
// a key that appears or disappears is an API change this test makes visible.
var (
	phaseKeys = []string{"assembly_ns", "basis_ns", "cache_hit", "coupling_ns",
		"id_ns", "sample_ns", "total_ns", "transfer_ns", "tree_ns"}
	statsKeys = []string{"matrix", "registry", "serve", "sweeps"}
)

// wireKeys GETs path and decodes the JSON object body into a map.
func wireKeys(t *testing.T, ts *httptest.Server, path string) map[string]any {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return out
}

// object returns the nested JSON object under key, failing if absent.
func object(t *testing.T, obj map[string]any, key string) map[string]any {
	t.Helper()
	v, ok := obj[key].(map[string]any)
	if !ok {
		t.Fatalf("no %q object in %v", key, obj)
	}
	return v
}

func checkKeys(t *testing.T, what string, obj map[string]any, want []string) {
	t.Helper()
	got := make([]string, 0, len(obj))
	for k := range obj {
		got = append(got, k)
	}
	sort.Strings(got)
	want = slices.Clone(want)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s keys:\n got  %v\n want %v", what, got, want)
	}
}

// serveReady runs a registry whose default instance is built from spec and
// is Ready.
func serveReady(t *testing.T, spec registry.BuildSpec) *httptest.Server {
	t.Helper()
	reg := registry.New(registry.Config{Workers: 1})
	t.Cleanup(reg.Close)
	mux := http.NewServeMux()
	MountLimits(mux, reg, 10*time.Second, Limits{})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	if err := reg.Create(DefaultInstance, spec); err != nil {
		t.Fatal(err)
	}
	if err := reg.WaitReady(context.Background(), DefaultInstance); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestWireKeysRelTolBuild(t *testing.T) {
	ts := serveReady(t, registry.BuildSpec{N: 800, Dim: 3, RelTol: 1e-4, Mem: "normal", Leaf: 50, Seed: 3})

	inf := wireKeys(t, ts, "/matrices/"+DefaultInstance)
	checkKeys(t, "info", inf, []string{"basis", "created_at", "dim", "est_relerr",
		"kernel", "last_apply", "level_ranks", "max_rank", "mem_bytes", "mode", "n",
		"name", "phases", "ready_at", "reltol", "serve", "spec", "state", "sweeps",
		"workers"})
	checkKeys(t, "info phases", object(t, inf, "phases"), phaseKeys)

	st := wireKeys(t, ts, "/stats")
	checkKeys(t, "stats", st, statsKeys)
	m := object(t, st, "matrix")
	checkKeys(t, "stats matrix", m, []string{"basis", "dim", "est_relerr", "kernel",
		"level_ranks", "max_rank", "mode", "n", "phases", "reltol", "workers"})
	checkKeys(t, "stats phases", object(t, m, "phases"), phaseKeys)
}

func TestWireKeysLoadedStream(t *testing.T) {
	ts := serveReady(t, registry.BuildSpec{Path: "../core/testdata/kernel-less-v5.bin"})

	inf := wireKeys(t, ts, "/matrices/"+DefaultInstance)
	checkKeys(t, "info", inf, []string{"basis", "created_at", "dim", "last_apply",
		"max_rank", "mem_bytes", "mode", "n", "name", "ready_at", "serve", "spec", "state",
		"sweeps", "workers"})

	st := wireKeys(t, ts, "/stats")
	checkKeys(t, "stats", st, statsKeys)
	// A kernel-less stream has no kernel name, so the key is omitted.
	checkKeys(t, "stats matrix", object(t, st, "matrix"), []string{"basis", "dim",
		"max_rank", "mode", "n", "workers"})
}

func TestWireKeysPending(t *testing.T) {
	release := make(chan struct{})
	reg := registry.New(registry.Config{Workers: 1, Builder: func(ctx context.Context, sp registry.BuildSpec, _ func(string)) (*core.Matrix, error) {
		<-release
		return nil, context.Canceled
	}})
	defer reg.Close()
	defer close(release)
	mux := http.NewServeMux()
	MountLimits(mux, reg, 10*time.Second, Limits{})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	// The only build worker blocks on "busy", so the default instance
	// stays queued.
	for _, name := range []string{"busy", DefaultInstance} {
		if err := reg.Create(name, registry.BuildSpec{N: 100}); err != nil {
			t.Fatal(err)
		}
	}

	inf := wireKeys(t, ts, "/matrices/"+DefaultInstance)
	if inf["state"] != "pending" {
		t.Fatalf("state %v, want pending", inf["state"])
	}
	checkKeys(t, "info", inf, []string{"created_at", "last_apply", "name", "ready_at", "spec", "state"})
	checkKeys(t, "stats", wireKeys(t, ts, "/stats"), []string{"registry"})
}

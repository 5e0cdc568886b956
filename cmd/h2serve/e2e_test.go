package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"h2ds/internal/api"
	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/registry"
	"h2ds/internal/serve"
)

// TestE2ESmoke drives the full serving stack over real HTTP: create an
// instance, poll it Ready, apply, check the product against the exact dense
// reference, exercise the default-instance aliases and lifecycle endpoints,
// and delete.
func TestE2ESmoke(t *testing.T) {
	const (
		n    = 500
		dim  = 3
		seed = 9
		tol  = 1e-6
	)
	reg := registry.New(registry.Config{Workers: 2})
	defer reg.Close()
	ts := httptest.NewServer(newServer(reg, 10*time.Second, api.Limits{}, true))
	defer ts.Close()
	client := ts.Client()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}

	// Health first.
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Create an instance over HTTP.
	spec := registry.BuildSpec{Kernel: "coulomb", Dist: "cube", N: n, Dim: dim,
		Tol: tol, Basis: "dd", Mem: "otf", Leaf: 50, Seed: seed}
	resp, body := post("/matrices", createRequest{Name: "default", Spec: spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}

	// Poll GET /matrices/{name} until Ready.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := get("/matrices/default")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get: %d %s", resp.StatusCode, body)
		}
		var inf registry.Info
		if err := json.Unmarshal(body, &inf); err != nil {
			t.Fatalf("get body: %v (%s)", err, body)
		}
		if inf.State.String() == "ready" {
			if inf.N != n || inf.Kernel != "coulomb" {
				t.Fatalf("ready info: %+v", inf)
			}
			break
		}
		if inf.State.String() == "failed" {
			t.Fatalf("build failed: %s", inf.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never ready: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Apply through the named route and through the default alias; both must
	// agree with the exact dense product within the build tolerance.
	rng := rand.New(rand.NewSource(31))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	k, err := kernel.ByName("coulomb")
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := pointset.Named("cube", n, dim, seed)
	exact := make([]float64, n)
	var norm float64
	for i := range exact {
		exact[i] = kernel.RowApply(k, pts, i, b)
		norm += exact[i] * exact[i]
	}
	norm = math.Sqrt(norm)

	checkApply := func(path string) {
		t.Helper()
		resp, body := post(path, applyRequest{B: b})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("apply %s: %d %s", path, resp.StatusCode, body)
		}
		var ar applyResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if len(ar.Y) != n {
			t.Fatalf("apply %s: got %d entries, want %d", path, len(ar.Y), n)
		}
		var diff float64
		for i, v := range ar.Y {
			diff += (v - exact[i]) * (v - exact[i])
		}
		if rel := math.Sqrt(diff) / norm; rel > 100*tol {
			t.Fatalf("apply %s: relative error %g vs dense reference (tol %g)", path, rel, tol)
		}
	}
	checkApply("/matrices/default/apply")
	checkApply("/apply")

	// /stats reports the default instance's shape from its own matrix plus
	// registry counters.
	{
		resp, body := get("/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats: %d", resp.StatusCode)
		}
		var st struct {
			Matrix struct {
				N       int    `json:"n"`
				Kernel  string `json:"kernel"`
				Workers int    `json:"workers"`
			} `json:"matrix"`
			Serve    serve.Stats    `json:"serve"`
			Registry registry.Stats `json:"registry"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("stats body: %v (%s)", err, body)
		}
		if st.Matrix.N != n || st.Matrix.Kernel != "coulomb" {
			t.Fatalf("stats matrix: %+v", st.Matrix)
		}
		if st.Matrix.Workers <= 0 {
			t.Fatalf("stats workers not reported: %+v", st.Matrix)
		}
		if st.Serve.Served != 2 {
			t.Fatalf("stats served = %d, want 2", st.Serve.Served)
		}
		if st.Registry.BuildsSucceeded != 1 || st.Registry.Ready != 1 {
			t.Fatalf("stats registry: %+v", st.Registry)
		}
	}

	// Listing shows exactly our instance.
	{
		resp, body := get("/matrices")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list: %d", resp.StatusCode)
		}
		var l struct {
			Instances []registry.Info `json:"instances"`
		}
		if err := json.Unmarshal(body, &l); err != nil {
			t.Fatal(err)
		}
		if len(l.Instances) != 1 || l.Instances[0].Name != "default" {
			t.Fatalf("list: %s", body)
		}
	}

	// Error paths: bad spec is a 400, duplicate concurrent build a 409,
	// missing instance a 404.
	if resp, _ := post("/matrices", createRequest{Name: "bad", Spec: registry.BuildSpec{Kernel: "nosuch"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}
	if resp, _ := post("/matrices/nosuch/apply", applyRequest{B: b}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("apply on missing: %d", resp.StatusCode)
	}
	if resp, _ := get("/matrices/nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get missing: %d", resp.StatusCode)
	}

	// Delete, then the default alias 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/matrices/default", nil)
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	if resp, _ := post("/apply", applyRequest{B: b}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("apply after delete: %d", resp.StatusCode)
	}
}

// TestE2EFailedBuildSurfaced checks a build that fails asynchronously is
// reported through GET /matrices/{name} and does not wedge the server.
func TestE2EFailedBuildSurfaced(t *testing.T) {
	reg := registry.New(registry.Config{Workers: 1, Builder: func(ctx context.Context, sp registry.BuildSpec, setStage func(string)) (*core.Matrix, error) {
		if sp.Path == "panic://http" {
			panic("http kaboom")
		}
		return registry.BuildWithCache(ctx, sp, setStage, nil)
	}})
	defer reg.Close()
	ts := httptest.NewServer(newServer(reg, 10*time.Second, api.Limits{}, true))
	defer ts.Close()

	buf, _ := json.Marshal(createRequest{Name: "boom", Spec: registry.BuildSpec{Path: "panic://http"}})
	resp, err := ts.Client().Post(ts.URL+"/matrices", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/matrices/boom")
		if err != nil {
			t.Fatal(err)
		}
		var inf registry.Info
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &inf); err != nil {
			t.Fatalf("%v (%s)", err, body)
		}
		if inf.State.String() == "failed" {
			if inf.Error == "" {
				t.Fatalf("failed without error: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failure never surfaced: %s", body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The worker pool is still alive: a good build on the same server works.
	buf, _ = json.Marshal(createRequest{Name: "ok", Spec: registry.BuildSpec{N: 300, Tol: 1e-4, Leaf: 50}})
	resp, err = ts.Client().Post(ts.URL+"/matrices", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create after panic: %d", resp.StatusCode)
	}
	// Apply blocks through Pending/Building and answers once Ready.
	b := make([]float64, 300)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	buf, _ = json.Marshal(applyRequest{B: b})
	resp, err = ts.Client().Post(ts.URL+"/matrices/ok/apply", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply while building: %d %s", resp.StatusCode, body)
	}
	var ar applyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Y) != 300 {
		t.Fatalf("apply returned %d entries", len(ar.Y))
	}
}

// TestUnmarshalStateRoundTrip pins the State JSON encoding the HTTP clients
// poll against.
func TestUnmarshalStateRoundTrip(t *testing.T) {
	for _, s := range []registry.State{0, 1, 2, 3, 4, 5} {
		buf, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%q", s.String())
		if string(buf) != want {
			t.Fatalf("state %d marshals to %s, want %s", s, buf, want)
		}
	}
}

// TestE2EInvalidSpecRejected checks spec validation surfaces as a 400 with
// the specific failure in the body — not a 500, and not an asynchronous
// Failed build the client would have to poll for.
func TestE2EInvalidSpecRejected(t *testing.T) {
	reg := registry.New(registry.Config{Workers: 1})
	defer reg.Close()
	ts := httptest.NewServer(newServer(reg, 5*time.Second, api.Limits{}, false))
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/matrices", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(out)
	}

	cases := []struct {
		body    string
		mention string
	}{
		{`{"name":"x","spec":{"n":100,"tol":1.5}}`, "tol"},
		{`{"name":"x","spec":{"n":100,"tol":-1e-6}}`, "tol"},
		{`{"name":"x","spec":{"n":100,"reltol":2}}`, "reltol"},
		{`{"name":"x","spec":{"n":100,"reltol":-0.5}}`, "reltol"},
		{`{"name":"bad name!","spec":{"n":100}}`, "name"},
		{`{"name":"x","spec":{"n":100,"kernel":"nope"}}`, "nope"},
	}
	for _, c := range cases {
		resp, body := post(c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d (%s), want 400", c.body, resp.StatusCode, body)
		}
		if !strings.Contains(body, c.mention) {
			t.Fatalf("POST %s: body %q does not mention %q", c.body, body, c.mention)
		}
	}
	// Nothing was created by any of the rejected specs.
	if len(reg.List()) != 0 {
		t.Fatalf("rejected specs left instances behind: %+v", reg.List())
	}
}

// TestE2ERelTolReporting creates an error-controlled instance over HTTP and
// checks the reltol metadata flows out of both /matrices/{name} and /stats.
func TestE2ERelTolReporting(t *testing.T) {
	reg := registry.New(registry.Config{Workers: 1})
	defer reg.Close()
	ts := httptest.NewServer(newServer(reg, 10*time.Second, api.Limits{}, false))
	defer ts.Close()

	body := `{"name":"default","spec":{"n":800,"dim":3,"reltol":1e-4,"mem":"normal","leaf":50,"seed":3}}`
	resp, err := ts.Client().Post(ts.URL+"/matrices", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if err := reg.WaitReady(context.Background(), "default"); err != nil {
		t.Fatal(err)
	}

	var inf registry.Info
	resp, err = ts.Client().Get(ts.URL + "/matrices/default")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw, &inf); err != nil {
		t.Fatalf("info body: %v (%s)", err, raw)
	}
	if inf.RelTol != 1e-4 || inf.EstRelErr <= 0 || inf.EstRelErr > 10*inf.RelTol {
		t.Fatalf("info reltol reporting: reltol=%g est=%g", inf.RelTol, inf.EstRelErr)
	}
	if inf.MaxRank <= 0 || len(inf.LevelRanks) == 0 {
		t.Fatalf("info rank reporting: %+v", inf)
	}

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Matrix struct {
			RelTol     float64          `json:"reltol"`
			EstRelErr  float64          `json:"est_relerr"`
			MaxRank    int              `json:"max_rank"`
			LevelRanks []core.LevelRank `json:"level_ranks"`
		} `json:"matrix"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats body: %v (%s)", err, raw)
	}
	if stats.Matrix.RelTol != 1e-4 || stats.Matrix.EstRelErr <= 0 {
		t.Fatalf("/stats reltol reporting: %+v (%s)", stats.Matrix, raw)
	}
	if stats.Matrix.MaxRank <= 0 || len(stats.Matrix.LevelRanks) == 0 {
		t.Fatalf("/stats rank reporting: %+v", stats.Matrix)
	}
}

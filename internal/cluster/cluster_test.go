package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
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
	"h2ds/internal/oracle"
	"h2ds/internal/pointset"
	"h2ds/internal/registry"
)

// testNode is one in-process cluster member: a registry behind the full
// node HTTP surface.
type testNode struct {
	reg *registry.Registry
	srv *httptest.Server
}

func startNode(t *testing.T) *testNode {
	t.Helper()
	reg := registry.New(registry.Config{Workers: 1})
	srv := httptest.NewServer(NodeHandler(reg, 20*time.Second, api.Limits{}))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return &testNode{reg: reg, srv: srv}
}

// startCluster brings up n nodes and a router over them.
func startCluster(t *testing.T, n, replicas int) ([]*testNode, *Router, *httptest.Server) {
	t.Helper()
	nodes := make([]*testNode, n)
	members := make([]string, n)
	for i := range nodes {
		nodes[i] = startNode(t)
		members[i] = nodes[i].srv.URL
	}
	rt := NewRouter(RouterConfig{
		Members: members, Replicas: replicas,
		Timeout: 30 * time.Second, HealthTTL: 150 * time.Millisecond,
	})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return nodes, rt, front
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func testSpec(seed int64) registry.BuildSpec {
	return registry.BuildSpec{Kernel: "coulomb", Dist: "cube", N: 600, Dim: 3,
		Tol: 1e-6, Basis: "dd", Mem: "otf", Leaf: 60, Seed: seed}
}

// waitReplicated polls the route endpoint until want replicas confirm.
func waitReplicated(t *testing.T, front, name string, want int) RouteInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(front + "/cluster/route/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var ri RouteInfo
		err = json.NewDecoder(resp.Body).Decode(&ri)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(ri.Replicated) >= want {
			return ri
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication of %q did not reach %d replicas: %+v", name, want, ri)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func testVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// denseApply computes the dense reference product for the coulomb testSpec.
func denseApply(sp registry.BuildSpec, b []float64) []float64 {
	pts, ok := pointset.Named(sp.Dist, sp.N, sp.Dim, sp.Seed)
	if !ok {
		panic("bad dist")
	}
	k := kernel.Coulomb{}
	y := make([]float64, sp.N)
	for i := 0; i < sp.N; i++ {
		var s float64
		for j := 0; j < sp.N; j++ {
			s += kernel.Eval(k, pts.At(i), pts.At(j)) * b[j]
		}
		y[i] = s
	}
	return y
}

func relErr(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

// applyVia posts one apply through the router, returning y and the node that
// served it.
func applyVia(t *testing.T, front, name string, b []float64) ([]float64, string) {
	t.Helper()
	buf, _ := json.Marshal(api.ApplyRequest{B: b})
	resp, err := http.Post(front+"/matrices/"+name+"/apply", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("apply via router: status %d: %s", resp.StatusCode, msg.String())
	}
	var ar api.ApplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	return ar.Y, resp.Header.Get("X-H2-Node")
}

// TestClusterEndToEnd is the three-node smoke: create through the router
// lands on the ring owner, replicates to one replica, reads rotate across
// both holders and return identical bits, the distributed sharded apply
// matches both the routed apply (bitwise) and the dense reference, and the
// tenant survives one replica disappearing.
func TestClusterEndToEnd(t *testing.T) {
	nodes, _, front := startCluster(t, 3, 2)
	byURL := map[string]*testNode{}
	for _, nd := range nodes {
		byURL[nd.srv.URL] = nd
	}

	const name = "shared"
	spec := testSpec(5)
	resp, body := postJSON(t, front.URL+"/matrices", api.CreateRequest{Name: name, Spec: spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create via router: status %d: %s", resp.StatusCode, body)
	}
	ri := waitReplicated(t, front.URL, name, 1)
	owner, replica := byURL[ri.Owner], byURL[ri.Replicated[0]]
	if owner == nil || replica == nil || owner == replica {
		t.Fatalf("bad placement %+v", ri)
	}

	// The replica node holds a Ready read-only copy, marked as imported.
	inf, ok := replica.reg.Get(name)
	if !ok || inf.State != registry.StateReady {
		t.Fatalf("replica state: %+v", inf)
	}
	if !inf.Spec.Replica {
		t.Fatal("replica instance not marked Replica in its spec")
	}
	if replica.reg.Stats().Installs != 1 {
		t.Fatalf("replica installs = %d, want 1", replica.reg.Stats().Installs)
	}

	// Reads through the router: correct against the dense reference,
	// bitwise-identical regardless of which holder serves, and actually
	// spread over more than one node.
	b := testVec(spec.N, 6)
	want := denseApply(spec, b)
	served := map[string]bool{}
	var first []float64
	for i := 0; i < 6; i++ {
		y, node := applyVia(t, front.URL, name, b)
		served[node] = true
		if e := relErr(y, want); e > 1e-4 {
			t.Fatalf("routed apply rel err %g vs dense reference", e)
		}
		if first == nil {
			first = y
		} else {
			for j := range y {
				if y[j] != first[j] {
					t.Fatalf("apply %d differs bitwise at %d (served by %s)", i, j, node)
				}
			}
		}
	}
	if len(served) < 2 {
		t.Fatalf("reads never rotated: all served by %v", served)
	}

	// Distributed sharded apply: scatter across the holders, gather on the
	// coordinator, bitwise-equal to the plain routed apply.
	buf, _ := json.Marshal(shardApplyRequest{B: b})
	sresp, err := http.Post(front.URL+"/matrices/"+name+"/shardapply", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(sresp.Body)
		sresp.Body.Close()
		t.Fatalf("shardapply: status %d: %s", sresp.StatusCode, msg.String())
	}
	var sar api.ApplyResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sar); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	for j := range sar.Y {
		if sar.Y[j] != first[j] {
			t.Fatalf("sharded apply differs bitwise from single-node apply at %d: %g vs %g", j, sar.Y[j], first[j])
		}
	}
	if e := relErr(sar.Y, want); e > 1e-4 {
		t.Fatalf("sharded apply rel err %g vs dense reference", e)
	}

	// Kill the replica: reads must keep succeeding via the owner, with the
	// same bits, within the health TTL.
	replica.srv.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		y, node := applyVia(t, front.URL, name, b)
		for j := range y {
			if y[j] != first[j] {
				t.Fatalf("post-failure apply differs bitwise at %d", j)
			}
		}
		if node == ri.Owner {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reads never failed over to the owner")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The sharded path degrades too: the dead worker's shards fall back to
	// local recomputation on the coordinator, bits unchanged.
	sresp2, err := http.Post(front.URL+"/matrices/"+name+"/shardapply", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var sar2 api.ApplyResponse
	if sresp2.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(sresp2.Body)
		sresp2.Body.Close()
		t.Fatalf("shardapply after replica loss: status %d: %s", sresp2.StatusCode, msg.String())
	}
	if err := json.NewDecoder(sresp2.Body).Decode(&sar2); err != nil {
		t.Fatal(err)
	}
	sresp2.Body.Close()
	for j := range sar2.Y {
		if sar2.Y[j] != first[j] {
			t.Fatalf("degraded sharded apply differs bitwise at %d", j)
		}
	}
}

// TestClusterCorruptTransfer: a replica install whose stream was corrupted
// in transit must be rejected by the CRC footer and leave no instance
// behind.
func TestClusterCorruptTransfer(t *testing.T) {
	nd := startNode(t)

	m, err := registry.BuildWithCache(context.Background(), registry.BuildSpec{
		Kernel: "coulomb", Dist: "cube", N: 400, Dim: 3, Tol: 1e-4,
		Basis: "dd", Mem: "otf", Leaf: 50, Sampler: "anchornet", Seed: 3,
	}, func(string) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	put := func(payload []byte) *http.Response {
		req, err := http.NewRequest(http.MethodPut, nd.srv.URL+"/cluster/replicas/corrupt", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// A mid-payload bit flip is caught by the CRC footer.
	corrupt := append([]byte(nil), stream...)
	corrupt[len(corrupt)/2] ^= 0x01
	if resp := put(corrupt); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt stream: status %d, want 400", resp.StatusCode)
	}
	// A truncated transfer (lost tail, no footer) is caught.
	if resp := put(stream[:len(stream)-20]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated stream accepted")
	}
	// A relabelled version word (byte 12, after the magic string) is
	// refused rather than read under an older layout without the footer.
	relabel := append([]byte(nil), stream...)
	relabel[8+4] = 3
	relabel[len(relabel)/2] ^= 0x01
	if resp := put(relabel); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version-3 relabel: status %d, want 400", resp.StatusCode)
	}
	// A kernel-less stream relabelled to on-the-fly mode, with its checksum
	// recomputed, is refused: its apply would need entries the oracle-less
	// replica cannot evaluate.
	if resp := put(kernelLessOTFStream(t)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kernel-less on-the-fly stream: status %d, want 400", resp.StatusCode)
	}
	if _, ok := nd.reg.Get("corrupt"); ok {
		t.Fatal("corrupt transfer left an instance behind")
	}
	// The pristine stream installs and serves.
	if resp := put(stream); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("pristine stream: status %d, want 204", resp.StatusCode)
	}
	inf, ok := nd.reg.Get("corrupt")
	if !ok || inf.State != registry.StateReady {
		t.Fatalf("pristine install state: %+v", inf)
	}
}

// kernelLessOTFStream serializes a small oracle-built (kernel-less) matrix,
// sets its memory-mode byte to on-the-fly, and recomputes the checksum
// footer over the patched body.
func kernelLessOTFStream(t *testing.T) []byte {
	t.Helper()
	const n = 200
	pts := pointset.Cube(n, 3, 17)
	data := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			data[i*n+j] = kernel.Gaussian{}.EvalPair(pts.At(i), pts.At(j))
		}
	}
	src, err := oracle.NewDense(n, data, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildOracle(src, core.Config{Tol: 1e-4, LeafSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	// Magic string (8+4 bytes), version (4), empty kernel name (8), kind
	// (1), then the mode byte.
	stream[8+4+4+8+1] = byte(core.OnTheFly)
	body := stream[:len(stream)-8]
	binary.LittleEndian.PutUint32(stream[len(body)+4:], crc32.ChecksumIEEE(body))
	return stream
}

// TestClusterDeleteEverywhere: a routed delete removes the instance from the
// owner and every replica.
func TestClusterDeleteEverywhere(t *testing.T) {
	nodes, _, front := startCluster(t, 3, 2)

	const name = "doomed"
	resp, body := postJSON(t, front.URL+"/matrices", api.CreateRequest{Name: name, Spec: testSpec(11)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	waitReplicated(t, front.URL, name, 1)

	req, _ := http.NewRequest(http.MethodDelete, front.URL+"/matrices/"+name, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("routed delete: status %d", dresp.StatusCode)
	}
	for _, nd := range nodes {
		if inf, ok := nd.reg.Get(name); ok && inf.State != registry.StateClosed {
			t.Fatalf("node %s still holds %q in state %v", nd.srv.URL, name, inf.State)
		}
	}
}

// TestClusterMembership: membership changes rebalance the ring and the
// routing debug endpoint reflects the new placement.
func TestClusterMembership(t *testing.T) {
	_, rt, front := startCluster(t, 3, 2)
	if n := rt.ring.Len(); n != 3 {
		t.Fatalf("ring has %d members", n)
	}

	// Ownership before and after adding a member: some names move, and every
	// move targets the new member.
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%03d", i)
	}
	before := map[string]string{}
	for _, k := range keys {
		before[k] = rt.ring.Owner(k)
	}
	added := "http://10.9.9.9:1"
	resp, body := postJSON(t, front.URL+"/cluster/members", memberChange{Add: []string{added}})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), added) {
		t.Fatalf("member add: status %d: %s", resp.StatusCode, body)
	}
	moved := 0
	for _, k := range keys {
		if o := rt.ring.Owner(k); o != before[k] {
			moved++
			if o != added {
				t.Fatalf("key %s moved between survivors on add", k)
			}
		}
	}
	if moved == 0 {
		t.Fatal("membership add moved nothing")
	}
	resp, _ = postJSON(t, front.URL+"/cluster/members", memberChange{Remove: []string{added}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("member remove: status %d", resp.StatusCode)
	}
	for _, k := range keys {
		if o := rt.ring.Owner(k); o != before[k] {
			t.Fatalf("ownership of %s not restored after remove", k)
		}
	}
}

// TestCreateWorkersInjection checks the router's fleet-wide worker default:
// with RouterConfig.Workers set, a create spec that leaves workers unset is
// forwarded with the router's count, while an explicit count in the spec
// wins over the injected default.
func TestCreateWorkersInjection(t *testing.T) {
	node := startNode(t)
	rt := NewRouter(RouterConfig{
		Members: []string{node.srv.URL}, Replicas: 1,
		Timeout: 30 * time.Second, HealthTTL: 150 * time.Millisecond,
		Workers: 3,
	})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	resp, body := postJSON(t, front.URL+"/matrices", api.CreateRequest{Name: "injected", Spec: testSpec(21)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	explicit := testSpec(22)
	explicit.Workers = 2
	resp, body = postJSON(t, front.URL+"/matrices", api.CreateRequest{Name: "explicit", Spec: explicit})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}

	waitState := func(name string) registry.Info {
		deadline := time.Now().Add(60 * time.Second)
		for {
			if inf, ok := node.reg.Get(name); ok && inf.State == registry.StateReady {
				return inf
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never became ready", name)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if inf := waitState("injected"); inf.Spec.Workers != 3 {
		t.Fatalf("injected spec workers = %d, want router default 3", inf.Spec.Workers)
	}
	if inf := waitState("explicit"); inf.Spec.Workers != 2 {
		t.Fatalf("explicit spec workers = %d, want 2 (must beat the router default)", inf.Spec.Workers)
	}
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"h2ds/internal/api"
	"h2ds/internal/core"
	"h2ds/internal/registry"
)

// Node is the per-process cluster peer: the endpoints the router (and other
// nodes) call on an h2serve instance. It owns no membership state — placement
// lives in the router's ring; a node just serves what it holds.
type Node struct {
	reg     *registry.Registry
	timeout time.Duration
	lim     api.Limits
	client  *http.Client
}

// NewNode wraps a registry with the cluster peer endpoints. timeout bounds
// the shard fan-out calls a gather makes to peers (0 = 30s); lim bounds
// request bodies (zero fields take the api defaults).
func NewNode(reg *registry.Registry, timeout time.Duration, lim api.Limits) *Node {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Node{reg: reg, timeout: timeout, lim: lim.WithDefaults(), client: &http.Client{}}
}

// Mount registers the peer endpoints on mux:
//
//	GET    /cluster/export/{name}   stream the serialized matrix (v5, CRC-tailed)
//	PUT    /cluster/replicas/{name} install a replica from a serialized stream
//	DELETE /cluster/replicas/{name} drop a replica (idempotent)
//	POST   /cluster/shards/apply    one shard's upward+coupling partial
//	POST   /cluster/gather          coordinate a sharded apply across peers
func (n *Node) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster/export/{name}", n.exportHandler)
	mux.HandleFunc("PUT /cluster/replicas/{name}", n.installHandler)
	mux.HandleFunc("DELETE /cluster/replicas/{name}", n.dropHandler)
	mux.HandleFunc("POST /cluster/shards/apply", n.shardHandler)
	mux.HandleFunc("POST /cluster/gather", n.gatherHandler)
}

// NodeHandler builds the complete single-node HTTP surface — the
// internal/api matrices endpoints plus the cluster peer endpoints — the
// shape every cluster member serves. cmd/h2serve assembles the same surface
// itself (it adds pprof); this constructor is for h2cluster nodes and tests.
func NodeHandler(reg *registry.Registry, timeout time.Duration, lim api.Limits) http.Handler {
	mux := http.NewServeMux()
	api.MountLimits(mux, reg, timeout, lim)
	NewNode(reg, timeout, lim).Mount(mux)
	return mux
}

// exportHandler streams the named instance's serialized form. The stream is
// the spill-file format: self-describing, version-tagged, CRC-tailed — the
// replication transport is the persistence format.
func (n *Node) exportHandler(w http.ResponseWriter, r *http.Request) {
	m, err := n.reg.MatrixWait(r.Context(), r.PathValue("name"))
	if err != nil {
		api.Error(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := m.WriteTo(w); err != nil {
		// Headers are gone; closing the connection mid-stream is the only
		// remaining error signal. The CRC footer guarantees the receiving
		// side rejects the truncated stream.
		return
	}
}

// installHandler rehydrates a serialized stream into a Ready read-only
// instance. The read accepts only the current stream version and verifies its
// CRC footer, so a corrupted, torn or relabelled transfer is rejected before
// any instance state changes.
func (n *Node) installHandler(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, err := core.ReadAny(http.MaxBytesReader(w, r.Body, n.lim.Upload))
	if err != nil {
		if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("cluster: replica stream for %q exceeds %d byte limit", name, mbe.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("cluster: bad replica stream for %q: %v", name, err), http.StatusBadRequest)
		return
	}
	if err := n.reg.Install(name, registry.BuildSpec{Replica: true}, m); err != nil {
		api.Error(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// dropHandler removes a replica. Unknown names answer 204 too: the desired
// state — not holding the instance — already holds.
func (n *Node) dropHandler(w http.ResponseWriter, r *http.Request) {
	err := n.reg.Delete(r.PathValue("name"))
	if err != nil && !errors.Is(err, registry.ErrNotFound) {
		api.Error(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// shardRequest asks one node for one shard's partial. The plan is never
// shipped: every holder of the same build derives an identical ShardPlan
// from (nshards, cut_level), so three integers fully describe the split.
type shardRequest struct {
	Name      string    `json:"name"`
	NShards   int       `json:"nshards"`
	CutLevel  int       `json:"cut_level"`
	Shard     int       `json:"shard"`
	Transpose bool      `json:"transpose,omitempty"`
	B         []float64 `json:"b"`
}

type shardResponse struct {
	Part []float64 `json:"part"`
}

// gatherRequest drives a distributed apply from the coordinating node.
// Peers[s] is the address serving shard s; an empty string (or a peer
// failure) makes the coordinator recompute that shard locally, so a gather
// degrades to a single-node apply rather than failing.
type gatherRequest struct {
	Name      string    `json:"name"`
	NShards   int       `json:"nshards"`
	CutLevel  int       `json:"cut_level"`
	Transpose bool      `json:"transpose,omitempty"`
	B         []float64 `json:"b"`
	Peers     []string  `json:"peers,omitempty"`
}

func (n *Node) shardHandler(w http.ResponseWriter, r *http.Request) {
	var req shardRequest
	if !api.DecodeJSON(w, r, n.lim.JSONBody, &req) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), n.timeout)
	defer cancel()
	part, err := n.reg.ApplyShard(ctx, req.Name, req.NShards, req.CutLevel, req.Shard, req.B, req.Transpose)
	if err != nil {
		api.Error(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, shardResponse{Part: part})
}

// gatherHandler coordinates one sharded product: shard partials are fetched
// from the peers concurrently, failures fall back to local recomputation
// (nil partial), and the merge + downward + nearfield sweeps run here. The
// result is bitwise-equal to a single-node apply of the same vector; for
// the exp-family kernels, only when every peer has the same mat.ExpBody()
// (math.Exp rounds differently on FMA and non-FMA hosts).
func (n *Node) gatherHandler(w http.ResponseWriter, r *http.Request) {
	var req gatherRequest
	if !api.DecodeJSON(w, r, n.lim.JSONBody, &req) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), n.timeout)
	defer cancel()

	if req.NShards < 1 {
		req.NShards = 1
	}
	if req.CutLevel <= 0 {
		m, err := n.reg.MatrixWait(ctx, req.Name)
		if err != nil {
			api.Error(w, err)
			return
		}
		req.CutLevel = m.AutoCutLevel(req.NShards)
	}

	parts := make([][]float64, req.NShards)
	var wg sync.WaitGroup
	for s := 0; s < req.NShards && s < len(req.Peers); s++ {
		peer := req.Peers[s]
		if peer == "" {
			continue
		}
		wg.Add(1)
		go func(s int, peer string) {
			defer wg.Done()
			part, err := n.fetchShard(ctx, peer, shardRequest{
				Name: req.Name, NShards: req.NShards, CutLevel: req.CutLevel,
				Shard: s, Transpose: req.Transpose, B: req.B,
			})
			if err != nil {
				return // parts[s] stays nil: recomputed locally by the gather
			}
			parts[s] = part
		}(s, peer)
	}
	wg.Wait()

	y, err := n.reg.ApplyGather(ctx, req.Name, req.NShards, req.CutLevel, req.B, parts, req.Transpose)
	if err != nil {
		api.Error(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.ApplyResponse{Y: y})
}

// fetchShard requests one shard partial from a peer.
func (n *Node) fetchShard(ctx context.Context, peer string, req shardRequest) ([]float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/cluster/shards/apply", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: shard %d from %s: status %d", req.Shard, peer, resp.StatusCode)
	}
	var sr shardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return sr.Part, nil
}

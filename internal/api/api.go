// Package api is the single-node HTTP surface over a registry: the
// /matrices lifecycle endpoints, the default-instance aliases, and the
// health/readiness probes. cmd/h2serve mounts it directly; internal/cluster
// mounts the same surface on every node so the router can speak one wire
// protocol to owners and replicas alike.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/oracle"
	"h2ds/internal/registry"
	"h2ds/internal/serve"
)

// DefaultInstance is the registry name the bare /apply and /stats endpoints
// alias, preserving the single-matrix wire protocol of earlier h2serve
// versions.
const DefaultInstance = "default"

// CreateRequest is the POST /matrices wire format: a name plus the same
// build knobs as the command line, or a path to load from.
type CreateRequest struct {
	Name string             `json:"name"`
	Spec registry.BuildSpec `json:"spec"`
}

// ApplyRequest and ApplyResponse are the apply wire format.
type ApplyRequest struct {
	B []float64 `json:"b"`
}

type ApplyResponse struct {
	Y []float64 `json:"y"`
}

// Limits bounds request bodies and places uploaded matrix data. Zero fields
// take the defaults below; every h2serve/h2cluster endpoint reads its body
// through http.MaxBytesReader with one of these caps and answers 413 when a
// client exceeds it.
type Limits struct {
	// JSONBody caps JSON request bodies (create, apply, cluster control).
	// Default 64 MiB — a full apply vector for n≈4M in decimal JSON.
	JSONBody int64

	// Upload caps raw dense-matrix uploads (POST /matrices/{name}/data)
	// and serialized-stream installs. Default 8 GiB (a 32768² float64
	// matrix).
	Upload int64

	// DataDir is where uploaded matrix files land (fsynced, then handed to
	// the registry build as a BuildSpec data_path). Default os.TempDir();
	// h2serve points it at the spill directory when one is configured so
	// uploads share the durable volume.
	DataDir string
}

// WithDefaults resolves zero fields to the serving defaults.
func (l Limits) WithDefaults() Limits {
	if l.JSONBody <= 0 {
		l.JSONBody = 64 << 20
	}
	if l.Upload <= 0 {
		l.Upload = 8 << 30
	}
	if l.DataDir == "" {
		l.DataDir = os.TempDir()
	}
	return l
}

// Readiness is the GET /readyz wire format: a coarse ok bit plus the full
// registry snapshot (build-queue depth, instance counts by state, memory
// headroom). The cluster router reads it when selecting replicas, preferring
// nodes with spare build capacity.
type Readiness struct {
	OK       bool           `json:"ok"`
	Registry registry.Stats `json:"registry"`
}

// MountLimits registers the registry endpoints on mux. Every body read is
// bounded by lim (413 over the cap; a zero Limits takes the defaults), and
// timeout bounds each apply request (0 = none, beyond the client's own
// context).
//
//	POST   /matrices              create or rebuild (hot-swap) an instance
//	GET    /matrices              list instances with state and counters
//	GET    /matrices/{name}       one instance
//	POST   /matrices/{name}/data  upload a dense matrix (raw float64) and build
//	POST   /matrices/{name}/apply y = A b through the instance's batcher
//	DELETE /matrices/{name}       remove an instance
//	POST   /apply                 alias: apply on "default"
//	GET    /stats                 alias: "default" shape + registry counters
//	GET    /healthz               liveness
//	GET    /readyz                readiness: queue depth, states, headroom
func MountLimits(mux *http.ServeMux, reg *registry.Registry, timeout time.Duration, lim Limits) {
	lim = lim.WithDefaults()
	mux.HandleFunc("POST /matrices", CreateHandler(reg, lim.JSONBody))
	mux.HandleFunc("GET /matrices", ListHandler(reg))
	mux.HandleFunc("GET /matrices/{name}", GetHandler(reg))
	mux.HandleFunc("POST /matrices/{name}/data", UploadHandler(reg, lim))
	mux.HandleFunc("POST /matrices/{name}/apply", func(w http.ResponseWriter, r *http.Request) {
		ApplyTo(reg, r.PathValue("name"), timeout, lim.JSONBody, w, r)
	})
	mux.HandleFunc("DELETE /matrices/{name}", DeleteHandler(reg))
	mux.HandleFunc("POST /apply", func(w http.ResponseWriter, r *http.Request) {
		ApplyTo(reg, DefaultInstance, timeout, lim.JSONBody, w, r)
	})
	mux.HandleFunc("GET /stats", StatsHandler(reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", ReadyzHandler(reg))
}

// DecodeJSON decodes r's body into v, reading at most limit bytes. On
// failure it writes the response itself — 413 when the body exceeds the
// limit, 400 otherwise — and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d byte limit", mbe.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Error maps registry sentinel errors onto HTTP statuses.
func Error(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrInvalidSpec):
		// Synchronous spec rejection (bad name, NaN/out-of-range tolerance,
		// unknown enum): the body carries the specific validation failure.
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, registry.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, registry.ErrBusy):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, registry.ErrQueueFull),
		errors.Is(err, registry.ErrClosed),
		errors.Is(err, serve.ErrQueueFull),
		errors.Is(err, serve.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, registry.ErrNotReady):
		// Failed build or spill-less eviction: the client must fix the spec
		// or re-create, so a conflict rather than a retryable 503.
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// CreateHandler serves POST /matrices. maxBody caps the request body.
func CreateHandler(reg *registry.Registry, maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if !DecodeJSON(w, r, maxBody, &req) {
			return
		}
		if err := reg.Create(req.Name, req.Spec); err != nil {
			Error(w, err)
			return
		}
		inf, _ := reg.Get(req.Name)
		WriteJSON(w, http.StatusAccepted, inf)
	}
}

// ListHandler serves GET /matrices.
func ListHandler(reg *registry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, struct {
			Instances []registry.Info `json:"instances"`
			Registry  registry.Stats  `json:"registry"`
		}{reg.List(), reg.Stats()})
	}
}

// GetHandler serves GET /matrices/{name}.
func GetHandler(reg *registry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		inf, ok := reg.Get(r.PathValue("name"))
		if !ok {
			http.Error(w, "no such instance", http.StatusNotFound)
			return
		}
		WriteJSON(w, http.StatusOK, inf)
	}
}

// DeleteHandler serves DELETE /matrices/{name}.
func DeleteHandler(reg *registry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := reg.Delete(r.PathValue("name")); err != nil {
			Error(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// UploadHandler serves POST /matrices/{name}/data: the body is a raw dense
// matrix — n·n row-major little-endian float64 values, no header, n inferred
// from the byte count — and the response is 202 with the instance Info once
// the geometry-oblivious build is queued. Build knobs ride in the query
// string: sym, reltol, tol, leaf, sampler, seed, workers.
//
// The body streams to a uniquely-named file in lim.DataDir, is fsynced, and
// the directory synced — the same durability discipline as the registry's
// eviction spill — before the build is submitted pointing at it.
// Bodies over lim.Upload answer 413; byte counts that are not 8·n² answer
// 400 before any build starts.
func UploadHandler(reg *registry.Registry, lim Limits) http.HandlerFunc {
	lim = lim.WithDefaults()
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		spec, ok := uploadSpec(w, r)
		if !ok {
			return
		}

		// The data directory is shared with the registry's spill files, which
		// are also created lazily — the directory may not exist yet.
		if err := os.MkdirAll(lim.DataDir, 0o755); err != nil {
			http.Error(w, "upload store: "+err.Error(), http.StatusInternalServerError)
			return
		}
		tmp, err := os.CreateTemp(lim.DataDir, "h2upload-*.h2data")
		if err != nil {
			http.Error(w, "upload store: "+err.Error(), http.StatusInternalServerError)
			return
		}
		tmpName := tmp.Name()
		drop := func() { tmp.Close(); os.Remove(tmpName) }

		nBytes, err := io.Copy(tmp, http.MaxBytesReader(w, r.Body, lim.Upload))
		if err != nil {
			drop()
			if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
				http.Error(w, fmt.Sprintf("upload exceeds %d byte limit", mbe.Limit), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "upload read: "+err.Error(), http.StatusBadRequest)
			return
		}
		n, err := oracle.DenseSize(nBytes)
		if err != nil {
			drop()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := tmp.Sync(); err != nil {
			drop()
			http.Error(w, "upload sync: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmpName)
			http.Error(w, "upload close: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if err := syncDir(lim.DataDir); err != nil {
			os.Remove(tmpName)
			http.Error(w, "upload dir sync: "+err.Error(), http.StatusInternalServerError)
			return
		}

		spec.Source = "dense"
		spec.DataPath = tmpName
		spec.N = n
		if err := reg.Create(name, spec); err != nil {
			os.Remove(tmpName)
			Error(w, err)
			return
		}
		inf, _ := reg.Get(name)
		WriteJSON(w, http.StatusAccepted, inf)
	}
}

// uploadSpec parses the upload endpoint's query-string build knobs into a
// dense BuildSpec skeleton (source, data path, and n are filled in by the
// caller). Answers 400 and returns false on a malformed value.
func uploadSpec(w http.ResponseWriter, r *http.Request) (registry.BuildSpec, bool) {
	var sp registry.BuildSpec
	q := r.URL.Query()
	bad := func(key, val string, err error) (registry.BuildSpec, bool) {
		http.Error(w, fmt.Sprintf("bad query parameter %s=%q: %v", key, val, err), http.StatusBadRequest)
		return sp, false
	}
	if v := q.Get("sym"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return bad("sym", v, err)
		}
		sp.Sym = b
	}
	if v := q.Get("reltol"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return bad("reltol", v, err)
		}
		sp.RelTol = f
	}
	if v := q.Get("tol"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return bad("tol", v, err)
		}
		sp.Tol = f
	}
	if v := q.Get("leaf"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil {
			return bad("leaf", v, err)
		}
		sp.Leaf = i
	}
	if v := q.Get("workers"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil {
			return bad("workers", v, err)
		}
		sp.Workers = i
	}
	if v := q.Get("seed"); v != "" {
		i, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return bad("seed", v, err)
		}
		sp.Seed = i
	}
	sp.Sampler = q.Get("sampler")
	return sp, true
}

// syncDir fsyncs a directory so a preceding rename/create in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ApplyTo serves one product through the named instance. The registry waits
// out Pending/Building states (bounded by the request deadline), so a client
// may POST right after creating an instance and block until it serves.
func ApplyTo(reg *registry.Registry, name string, timeout time.Duration, maxBody int64, w http.ResponseWriter, r *http.Request) {
	var req ApplyRequest
	if !DecodeJSON(w, r, maxBody, &req) {
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	y, err := reg.Apply(ctx, name, req.B)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return // client went away; nothing useful to write
		}
		Error(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ApplyResponse{Y: y})
}

// ReadyzHandler serves GET /readyz: always 200 while the process can answer,
// with the registry snapshot for routers to rank nodes by. A node that is
// down simply fails the request — that, not a status code, is the
// not-ready signal.
func ReadyzHandler(reg *registry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, Readiness{OK: true, Registry: reg.Stats()})
	}
}

// StatsHandler reports the default instance's matrix summary, serve
// counters and cumulative per-sweep stage timings, all from one registry
// snapshot (so a hot swap is reflected immediately and never mixes two
// versions), plus the registry counters.
func StatsHandler(reg *registry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		out := struct {
			Matrix   *core.Summary    `json:"matrix,omitempty"`
			Serve    *serve.Stats     `json:"serve,omitempty"`
			Sweeps   *core.SweepStats `json:"sweeps,omitempty"`
			Registry registry.Stats   `json:"registry"`
		}{Registry: reg.Stats()}
		if inf, ok := reg.Get(DefaultInstance); ok && inf.Serve != nil {
			out.Matrix, out.Serve, out.Sweeps = &inf.Summary, inf.Serve, inf.Sweeps
		}
		WriteJSON(w, http.StatusOK, out)
	}
}

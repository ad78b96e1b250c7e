// Package serve exposes the analysis engine over HTTP/JSON — the
// language-agnostic realization of the paper's planned "Python interface
// for ease of use". One loaded dataset serves concurrent read-only queries.
//
// Routing is registry-driven: every query kind registered in
// internal/registry is served under /api/v1/<kind>, parameters validated
// against the kind's schema, results produced by the kind's Run function
// and memoized in a snapshot-keyed result cache (internal/qcache) with
// single-flight execution — N concurrent identical requests cost one scan.
// The pre-versioning /api/<endpoint> paths remain mounted as deprecated
// aliases: same results, same cache, plus a Deprecation header and a
// counter so operators can watch old clients drain before removal.
//
// Every endpoint accepts the common workers, from and to parameters to pin
// parallelism and restrict the capture-time window, and every failure path
// answers with the uniform JSON envelope {"error": ..., "kind": ...}.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// Server serves analysis queries over one immutable dataset — either a
// monolithic store or a time-partitioned shard set (NewSharded), in which
// case queries fan out per shard and reduce through the global dictionary
// remaps.
type Server struct {
	db        *store.DB
	eng       *engine.Engine
	sview     *shard.View        // non-nil when serving a sharded dataset
	snap      func() *shard.View // non-nil when serving a live append log
	cfg       Config
	handler   http.Handler
	slots     chan struct{} // load-shedding semaphore, nil when unlimited
	ready     atomic.Bool
	inFlight  atomic.Int64
	endpoints map[string]*endpointMetrics
	exec      *registry.Executor
	// v1 maps canonical kind -> instrumented handler, built once at
	// construction so the /metrics inventory is complete before traffic.
	v1 map[string]http.HandlerFunc
}

// legacyEndpoints maps the deprecated unversioned paths to registry kinds.
// The series paths are handled separately (one legacy endpoint fans out to
// four registered kinds).
var legacyEndpoints = []struct{ path, kind string }{
	{"/api/stats", "stats"},
	{"/api/defects", "defects"},
	{"/api/top-publishers", "top-publishers"},
	{"/api/top-events", "top-events"},
	{"/api/event-sizes", "event-sizes"},
	{"/api/country", "country"},
	{"/api/follow", "follow"},
	{"/api/coreport", "coreport"},
	{"/api/delays", "delays"},
	{"/api/quarterly-delay", "quarterly-delay"},
	{"/api/wildfires", "wildfires"},
	{"/api/count", "count"},
	{"/api/themes", "themes"},
	{"/api/theme-trends", "theme-trends"},
	{"/api/translated-share", "translated-share"},
}

// New returns a server over the database with no protective limits and the
// default result-cache budget.
func New(db *store.DB) *Server { return NewWithConfig(db, Config{}) }

// NewWithConfig returns a server with the given timeout, load-shedding and
// cache limits applied to every query endpoint.
func NewWithConfig(db *store.DB, cfg Config) *Server {
	return newServer(&Server{db: db, eng: engine.New(db)}, cfg)
}

// NewSharded returns a server over a time-partitioned shard set. Every
// query fans out per shard (registry ExecuteSharded); cache keys embed the
// per-shard version vector, and the cache's staleness predicate retires
// exactly the entries whose window overlaps a bumped shard — a tail-shard
// append keeps results for cold shards warm.
func NewSharded(sdb *shard.DB, cfg Config) *Server {
	return newServer(&Server{sview: sdb.View()}, cfg)
}

// NewLive returns a server over a live append log. Each request resolves
// the log's current snapshot, so results reflect every append folded
// before the request arrived while in-flight queries keep reading the
// snapshot they started on (shard.Log publishes copy-on-write worlds).
// The cache staleness predicate also consults the current snapshot:
// append bumps the tail shard's version, which every cached key embeds,
// so each append retires the cached answers computed before it.
func NewLive(lg *shard.Log, cfg Config) *Server {
	s := &Server{snap: func() *shard.View { return lg.Snapshot().View() }}
	s = newServer(s, cfg)
	if s.exec.Cache != nil {
		s.exec.Cache.SetStale(func(k qcache.Key) bool { return lg.Snapshot().StaleKey(k) })
	}
	return s
}

func newServer(s *Server, cfg Config) *Server {
	s.cfg = cfg
	s.endpoints = make(map[string]*endpointMetrics)
	if cfg.MaxInFlight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.CacheBytes < 0 {
		s.exec = &registry.Executor{} // caching disabled: every query scans
	} else {
		s.exec = &registry.Executor{Cache: qcache.New(cfg.CacheBytes)}
	}
	if s.sview != nil && s.exec.Cache != nil {
		s.exec.Cache.SetStale(s.sview.DB().StaleKey)
	}
	s.ready.Store(true)
	mux := http.NewServeMux()
	// Versioned surface: one instrumented handler per registered kind,
	// dispatched by routeV1.
	s.v1 = make(map[string]http.HandlerFunc)
	for _, d := range registry.All() {
		d := d
		s.v1[d.Kind] = s.instrument(d.Kind, func(w http.ResponseWriter, r *http.Request) {
			s.serveQuery(w, r, d)
		})
	}
	mux.HandleFunc("/api/v1/", s.routeV1)
	// Deprecated unversioned aliases: same descriptors, same cache, plus
	// the Deprecation header and drain counter.
	for _, l := range legacyEndpoints {
		d := registry.MustLookup(l.kind)
		h := func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, d) }
		s.handle(mux, l.path, l.kind, s.deprecate(l.kind, "/api/v1/"+l.kind, h))
	}
	s.handle(mux, "/api/series/", "series",
		s.deprecate("series", "/api/v1/series-articles", s.legacySeries))
	// Health probes and the metrics scrape stay outside the protective
	// chain: a loaded or draining server must still answer liveness checks
	// and report what it is doing.
	root := http.NewServeMux()
	root.HandleFunc("/healthz", s.handleHealthz)
	root.HandleFunc("/readyz", s.handleReadyz)
	root.HandleFunc("/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		mountPprof(root)
	}
	root.Handle("/", s.protect(mux))
	s.handler = root
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Cache returns the server's result cache, or nil when caching is disabled.
func (s *Server) Cache() *qcache.Cache { return s.exec.Cache }

// routeV1 resolves /api/v1/<kind> against the registry. Unknown kinds get
// the uniform 404 envelope naming the kind they asked for.
func (s *Server) routeV1(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	d, ok := registry.Lookup(name)
	if !ok {
		jsonErrorQuery(w, http.StatusNotFound, name, "unknown query kind %q", name)
		return
	}
	s.v1[d.Kind](w, r)
}

// legacySeries fans the old /api/series/<which> paths out to the four
// registered series kinds, keeping the single "series" metric label the
// unversioned surface always had.
func (s *Server) legacySeries(w http.ResponseWriter, r *http.Request) {
	var kind string
	switch r.URL.Path {
	case "/api/series/articles":
		kind = "series-articles"
	case "/api/series/events":
		kind = "series-events"
	case "/api/series/active-sources":
		kind = "series-active-sources"
	case "/api/series/slow-articles":
		kind = "series-slow-articles"
	default:
		jsonErrorQuery(w, http.StatusNotFound, kindOf(r), "unknown series %q", r.URL.Path)
		return
	}
	s.serveQuery(w, r, registry.MustLookup(kind))
}

// serveQuery is the one code path every query endpoint runs: derive the
// engine view from the common parameters, validate the kind's own
// parameters against its schema, and execute through the cache. The
// X-Cache header reports how the result was obtained (hit, miss,
// coalesced) so clients and benchmarks can tell a scan from a lookup.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, d *registry.Descriptor) {
	kind := kindOf(r)
	q := r.URL.Query()
	if r.Method == http.MethodPost {
		// POST carries the parameters form-encoded in the body (long qlang
		// expressions outgrow comfortable URLs). ParseForm merges body and
		// URL values; body values come first, and the registry's
		// last-value-wins rule then lets the URL override the body.
		if err := r.ParseForm(); err != nil {
			jsonErrorQuery(w, http.StatusBadRequest, kind, "invalid form body: %v", err)
			return
		}
		q = r.Form
	}
	p, err := d.ParseURLValues(q)
	if err != nil {
		jsonErrorQuery(w, http.StatusBadRequest, kind, "%v", err)
		return
	}
	get := func(name string) []string { return q[name] }
	var (
		v       any
		outcome qcache.Outcome
	)
	base := s.sview
	if s.snap != nil {
		// Live mode: pin this request to the log's snapshot as of now.
		base = s.snap()
	}
	if base != nil {
		sv := base.WithContext(r.Context())
		if kind != "" {
			sv = sv.WithKind(kind)
		}
		sv, err = registry.DeriveView(sv, get)
		if err != nil {
			jsonErrorQuery(w, http.StatusBadRequest, kind, "%v", err)
			return
		}
		v, outcome, err = s.exec.ExecuteSharded(d, sv, p)
	} else {
		e := s.eng.WithContext(r.Context())
		if kind != "" {
			e = e.WithKind(kind)
		}
		e, err = registry.DeriveEngine(e, get)
		if err != nil {
			jsonErrorQuery(w, http.StatusBadRequest, kind, "%v", err)
			return
		}
		v, outcome, err = s.exec.Execute(d, e, p)
	}
	if err != nil {
		s.queryError(w, kind, err)
		return
	}
	if outcome != qcache.Bypass {
		w.Header().Set("X-Cache", outcome.String())
	}
	writeJSON(w, r, v)
}

// queryError maps an execution error to its transport status: cancellation
// to 504 (with the timeout counter the dashboards watch), parameter errors
// to 400, a missing GKG to 404, anything else to 500.
func (s *Server) queryError(w http.ResponseWriter, kind string, err error) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if kind != "" {
			obs.Default.Counter("queries_timeout_total",
				"queries abandoned by timeout or client disconnect", obs.L("kind", kind)).Inc()
		}
		jsonErrorQuery(w, http.StatusGatewayTimeout, kind, "request cancelled: %v", err)
	case registry.IsBadParam(err):
		jsonErrorQuery(w, http.StatusBadRequest, kind, "%v", err)
	case errors.Is(err, queries.ErrNoGKG):
		jsonErrorQuery(w, http.StatusNotFound, kind, "%v", err)
	default:
		jsonErrorQuery(w, http.StatusInternalServerError, kind, "%v", err)
	}
}

// writeJSON sends v, unless the request was cancelled or timed out while
// the query ran — a cancelled engine scan returns a partial aggregate, so
// the result must not be served as if it were complete. The 504 names the
// query kind in the error envelope and records queries_timeout_total so
// timeout storms are visible on /metrics.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	if err := r.Context().Err(); err != nil {
		kind := kindOf(r)
		if kind != "" {
			obs.Default.Counter("queries_timeout_total",
				"queries abandoned by timeout or client disconnect", obs.L("kind", kind)).Inc()
		}
		jsonErrorQuery(w, http.StatusGatewayTimeout, kind, "request cancelled: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding response: %v", err)
	}
}

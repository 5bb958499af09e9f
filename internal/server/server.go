// Package server is the network front end: a stdlib net/http service
// exposing the dsu package's tenant-scoped Universe API — named universes
// over flat or sharded backends, batched UniteAll/SameSetAll, and
// streaming ingestion — to remote clients over the wire package's framing
// (length-prefixed binary, or newline-delimited JSON for debugging).
//
// # Surface
//
//	GET    /healthz                     liveness
//	GET    /v1/tenants                  list tenants
//	POST   /v1/tenants                  create a tenant (TenantSpec JSON)
//	GET    /v1/tenants/{name}           tenant info (TenantInfo JSON)
//	DELETE /v1/tenants/{name}           drop a tenant
//	GET    /v1/tenants/{name}/labels    canonical labels (JSON; quiescent)
//	POST   /v1/tenants/{name}/unite     one framed UniteRequest → framed reply
//	POST   /v1/tenants/{name}/query     one framed QueryRequest → framed reply
//	POST   /v1/tenants/{name}/stream    full-duplex edge stream (see below)
//	POST   /v1/tenants/{name}/pipe      pipelined batch RPC (see below)
//	POST   /v1/tenants/{name}/checkpoint  snapshot a durable tenant's log
//
// The unite/query endpoints are batch RPC: one request envelope in the
// body, one reply (or error) envelope back, encoding chosen by
// Content-Type. Any transport-level problem is a plain HTTP status; once
// a well-formed envelope arrives, outcomes travel as envelopes so the two
// encodings behave identically.
//
// # Pipelining
//
// The pipe endpoint is batch RPC without the per-exchange round trip:
// one full-duplex connection carries any number of unite/query
// envelopes, each answered in arrival order by a reply (or error)
// envelope echoing its Seq. The client needn't wait for a reply before
// sending the next request, so small-frame workloads amortize the HTTP
// exchange cost that dominates them (E22); reply frames are coalesced by
// a flush-on-idle writer, so bursts of small replies leave in one write.
// A request that fails validation answers an error envelope and the pipe
// carries on; a malformed frame or a non-unite/query kind answers an
// error envelope and ends the pipe. Closing the request body ends the
// pipe cleanly after the last reply. Per-tenant RPC budgets apply to
// each piped request exactly as they do to single-shot RPC.
//
// # Streaming and backpressure
//
// The stream endpoint runs one dsu.Stream per connection over the
// tenant's universe: unite frames push edges into the stream's
// double-buffered batches, flush frames seal early, and each executed
// batch answers with a reply envelope (Seq = batch id) written as it
// completes. Backpressure is end to end — when the stream is MaxInFlight
// batches ahead, the handler blocks in Push, stops reading the request
// body, and TCP pushes back on the producer. Closing the request body
// drains the stream and answers a final end envelope carrying the
// ingestion totals; Stop (server shutdown) cancels the stream context,
// which ends ingestion promptly (the loop selects against the context,
// so even a push-only connection blocked in a body read observes it),
// surfaces the dsu layer's Flush/Close cancellation errors, and reports
// the abort and any lost batches in the end envelope — the clean-shutdown
// path those cancellation errors exist for.
//
// # Isolation
//
// Tenants are isolated structurally: each universe owns its structure,
// and nothing is shared across names (the dsu.Registry's contract). The
// server adds resource isolation: every tenant has its own bounded
// in-flight budget (MaxInFlight) for RPC batches, so one tenant's burst
// queues against itself, not against other tenants; streams bound
// in-flight batches per connection by construction. Requests are
// validated against the tenant's universe before execution — a remote
// frame can never reach the wait-free core's unchecked indexing.
//
// Tenants whose structure is concurrent-capable (the lock-free kind —
// dsu.Universe.Concurrent) skip the queueing half of that story: their
// batch calls are safe to overlap, so RPCs execute immediately without
// taking the per-tenant budget, and their stream connections run with
// concurrent batch dispatch (up to the connection's in-flight bound of
// batches executing simultaneously, replies in completion order). The
// budget exists to serialize mutations a plain backend can't take
// concurrently; a lock-free tenant doesn't need the protection.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/dsu"
	"repro/internal/metrics"
	"repro/internal/tracespan"
	"repro/internal/wire"
)

// Config tunes one Server. The zero value of every field selects a
// sensible default; Registry is required.
type Config struct {
	// Registry holds the tenants. Preload it (cmd/dsuserve's -tenant
	// flags) or let clients create tenants remotely.
	Registry *dsu.Registry
	// MaxFrame bounds one wire message; ≤ 0 selects wire.DefaultMaxFrame.
	MaxFrame int
	// MaxInFlight bounds, per tenant, the RPC batches executing
	// concurrently, and caps the per-connection in-flight bound a stream
	// may request; ≤ 0 selects 4. Concurrent-capable tenants (the
	// lock-free kind) are exempt from the RPC budget — overlap is their
	// contract — but the stream cap still applies (it bounds buffered
	// batches, which is memory, not safety).
	MaxInFlight int
	// StreamBuffer is the default stream seal threshold in edges; ≤ 0
	// selects the dsu default (65536). Connections may override with the
	// ?buffer= query parameter, clamped to MaxFrame's edge capacity.
	StreamBuffer int
	// MaxN caps the universe size a remote tenant create may request —
	// structure allocation is synchronous and proportional to n, so an
	// unauthenticated create must not be able to reserve arbitrary
	// memory. ≤ 0 selects 1<<26 (~67M elements, ~0.5 GiB per flat
	// structure). Preloaded tenants (the operator's own flags) are not
	// subject to it.
	MaxN int
	// Log, when non-nil, receives structured log records: tenant
	// lifecycle and stream open/close at Info, per-RPC lines (tenant,
	// endpoint, trace ID, outcome) at Debug. Nil disables logging at
	// zero cost.
	Log *slog.Logger
	// Metrics, when non-nil, instruments the front end onto the same
	// registry that carries the dsu per-tenant series (pass the same
	// *dsu.Metrics given to dsu.WithMetrics), so one /metrics scrape
	// covers the whole stack: request latency by endpoint/encoding/
	// status, active streams, wire frames and bytes in/out, decode
	// errors, and per-tenant RPC budget pressure. Nil leaves the server
	// uninstrumented at zero cost.
	Metrics *dsu.Metrics
}

// Server is the HTTP front end. Create with New; it is an http.Handler.
type Server struct {
	cfg  Config
	reg  *dsu.Registry
	log  *slog.Logger   // never nil (no-op handler when Config.Log is nil)
	m    *serverMetrics // nil when uninstrumented
	stop chan struct{}
	once sync.Once
	sems sync.Map // tenant name → chan struct{} (RPC in-flight budget)
}

// noopHandler is the disabled logging mode: a handler that reports every
// level disabled, so call sites need no nil checks and pay no argument
// evaluation (slog checks Enabled before assembling the record).
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopHandler{} }
func (noopHandler) WithGroup(string) slog.Handler             { return noopHandler{} }

// New returns a server over cfg.Registry. It panics on a nil registry —
// that is a programming error, not a runtime condition.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("server: Config.Registry is required")
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 1 << 26
	}
	s := &Server{cfg: cfg, reg: cfg.Registry, log: cfg.Log, stop: make(chan struct{})}
	if s.log == nil {
		s.log = slog.New(noopHandler{})
	}
	if cfg.Metrics != nil {
		s.m = newServerMetrics(cfg.Metrics.Registry())
	}
	return s
}

// Stop begins shutdown: open stream connections have their contexts
// cancelled (their clients get loss-reporting end envelopes), and RPCs
// waiting on in-flight budgets abort. Pair with http.Server.Shutdown,
// which handles the listener and in-flight handlers. Idempotent.
func (s *Server) Stop() { s.once.Do(func() { close(s.stop) }) }

// TenantSpec is the JSON body of POST /v1/tenants: the tenant name plus
// the structure configuration, phrased in the dsu option vocabulary's
// wire-friendly form. Kind names the structure kind per dsu.ParseKind
// ("flat", "sharded", "lockfree"); left empty, Shards > 0 selects a
// sharded structure. Find names a strategy per dsu.ParseFindStrategy
// ("auto" turns on the adaptive policy); Seed fixes the random linking
// order for reproducible tenants.
type TenantSpec struct {
	Name             string `json:"name"`
	N                int    `json:"n"`
	Kind             string `json:"kind,omitempty"`
	Shards           int    `json:"shards,omitempty"`
	Find             string `json:"find,omitempty"`
	EarlyTermination bool   `json:"early_termination,omitempty"`
	Seed             uint64 `json:"seed,omitempty"`
}

// Options translates the spec into the dsu option vocabulary — the one
// translation both remote creates and cmd/dsuserve's preload flags use,
// so the two paths cannot drift.
func (sp TenantSpec) Options() ([]dsu.Option, error) {
	find, err := dsu.ParseFindStrategy(sp.Find)
	if err != nil {
		return nil, err
	}
	kind, err := dsu.ParseKind(sp.Kind)
	if err != nil {
		return nil, err
	}
	var opts []dsu.Option
	if kind != 0 {
		opts = append(opts, dsu.WithKind(kind))
	}
	if find != 0 {
		opts = append(opts, dsu.WithFind(find))
	}
	if sp.EarlyTermination {
		opts = append(opts, dsu.WithEarlyTermination())
	}
	if sp.Seed != 0 {
		opts = append(opts, dsu.WithSeed(sp.Seed))
	}
	if sp.Shards > 0 {
		opts = append(opts, dsu.WithShards(sp.Shards))
	}
	return opts, nil
}

// TenantInfo describes one tenant in list/info responses.
type TenantInfo struct {
	Name     string `json:"name"`
	N        int    `json:"n"`
	Kind     string `json:"kind"`
	Shards   int    `json:"shards,omitempty"`
	Adaptive bool   `json:"adaptive,omitempty"`
	// Concurrent reports the lock-free kind's capability: this tenant's
	// requests run truly concurrently (no per-tenant RPC queueing,
	// concurrent stream dispatch).
	Concurrent bool `json:"concurrent,omitempty"`
	Sets       int  `json:"sets"`
	// Seq is the tenant's applied-batch sequence number — on a durable
	// tenant, the durable log position. Operators compare it across
	// replicas or against a log's dsulog info output.
	Seq uint64 `json:"seq"`
	// Durable reports whether the tenant persists its mutations to a
	// write-ahead log (the server was started with -data).
	Durable bool `json:"durable,omitempty"`
}

func infoOf(u *dsu.Universe) TenantInfo {
	return TenantInfo{
		Name:       u.Name(),
		N:          u.N(),
		Kind:       u.Kind(),
		Shards:     u.Shards(),
		Adaptive:   u.Adaptive(),
		Concurrent: u.Concurrent(),
		Sets:       u.Sets(),
		Seq:        u.Seq(),
		Durable:    u.Durable(),
	}
}

// validName keeps tenant names path- and log-safe.
func validName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ServeHTTP routes the request; when the server is instrumented it also
// times the whole exchange into the latency histogram, labeled by
// endpoint class, wire encoding, and final HTTP status.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.m == nil {
		s.route(w, r)
		return
	}
	sr := &statusRecorder{ResponseWriter: w, m: s.m, r: r, start: time.Now()}
	s.route(sr, r)
	sr.observe()
}

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	case path == "/v1/tenants" || path == "/v1/tenants/":
		s.handleTenants(w, r)
	case strings.HasPrefix(path, "/v1/tenants/"):
		rest := strings.TrimPrefix(path, "/v1/tenants/")
		name, action, _ := strings.Cut(rest, "/")
		if !validName(name) {
			http.Error(w, "invalid tenant name", http.StatusBadRequest)
			return
		}
		u, ok := s.reg.Get(name)
		if !ok {
			http.Error(w, fmt.Sprintf("tenant %q not found", name), http.StatusNotFound)
			return
		}
		switch action {
		case "":
			s.handleTenant(w, r, u)
		case "labels":
			if r.Method != http.MethodGet {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			writeJSON(w, http.StatusOK, u.CanonicalLabels())
		case "unite":
			s.handleRPC(w, r, u, wire.KindUnite)
		case "query":
			s.handleRPC(w, r, u, wire.KindQuery)
		case "stream":
			s.handleStream(w, r, u)
		case "pipe":
			s.handlePipe(w, r, u)
		case "checkpoint":
			s.handleCheckpoint(w, r, u)
		default:
			http.Error(w, "unknown action", http.StatusNotFound)
		}
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		infos := make([]TenantInfo, 0)
		for _, name := range s.reg.Names() {
			if u, ok := s.reg.Get(name); ok {
				infos = append(infos, infoOf(u))
			}
		}
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		var spec TenantSpec
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&spec); err != nil {
			http.Error(w, "bad tenant spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		if !validName(spec.Name) {
			http.Error(w, "invalid tenant name", http.StatusBadRequest)
			return
		}
		if spec.N > s.cfg.MaxN {
			http.Error(w, fmt.Sprintf("universe size %d exceeds this server's limit of %d", spec.N, s.cfg.MaxN), http.StatusBadRequest)
			return
		}
		opts, err := spec.Options()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		u, err := s.reg.Create(spec.Name, spec.N, opts...)
		if err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "already exists") {
				status = http.StatusConflict
			}
			http.Error(w, err.Error(), status)
			return
		}
		s.log.Info("tenant created",
			"tenant", u.Name(), "n", u.N(), "kind", u.Kind(), "shards", u.Shards())
		writeJSON(w, http.StatusCreated, infoOf(u))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request, u *dsu.Universe) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, infoOf(u))
	case http.MethodDelete:
		s.reg.Drop(u.Name())
		s.sems.Delete(u.Name())
		s.log.Info("tenant dropped", "tenant", u.Name())
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleCheckpoint snapshots a durable tenant's log on demand: the dsu
// layer quiesces the structure (in-flight mutation batches drain, new
// ones hold briefly) and writes a durable snapshot, bounding recovery
// time for everything logged so far. 204 on success, 409 on a
// non-durable tenant, 500 when the snapshot write fails (the log is
// poisoned; subsequent mutations will fail too).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, u *dsu.Universe) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch err := u.Checkpoint(); {
	case err == nil:
		s.log.Info("checkpoint", "tenant", u.Name(), "seq", u.Seq())
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, dsu.ErrNotDurable):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		s.log.Error("checkpoint failed", "tenant", u.Name(), "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// sem returns the tenant's RPC in-flight budget.
func (s *Server) sem(name string) chan struct{} {
	if v, ok := s.sems.Load(name); ok {
		return v.(chan struct{})
	}
	v, _ := s.sems.LoadOrStore(name, make(chan struct{}, s.cfg.MaxInFlight))
	return v.(chan struct{})
}

// handleRPC answers one framed batch request. Envelope kind must match
// the endpoint — /unite carries unite envelopes, /query query envelopes —
// so a misrouted frame fails loudly instead of mutating the wrong way.
//
// On a traced tenant the whole exchange records one span tree: the trace
// opens before the frame is decoded (wire-decode span), adopts the
// client's trace context if the envelope carried one, waits under a
// queue-wait span, executes through the traced DTO methods (execute and
// sub-spans recorded at the executor seam), and closes with a
// reply-encode span; the reply envelope carries the trace context back.
// Exchanges that fail before execution — bad frames, kind mismatches,
// shutdown — drop their trace unrecorded: there is no batch to explain.
func (s *Server) handleRPC(w http.ResponseWriter, r *http.Request, u *dsu.Universe, want wire.Kind) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	format, ok := wire.FormatFor(r.Header.Get("Content-Type"))
	if !ok {
		http.Error(w, "unsupported content type", http.StatusUnsupportedMediaType)
		return
	}
	op, endpoint := tracespan.OpQuery, "query"
	if want == wire.KindUnite {
		op, endpoint = tracespan.OpUnite, "unite"
	}
	rec := u.TraceRecorder() // nil (all no-ops) on an untraced tenant
	tr := rec.Start(op, tracespan.SourceRPC)
	wd := tr.Start(tracespan.StageWireDecode, tracespan.Root)
	// Pooled codec: the request envelope lives in decoder scratch, which
	// is safe here because execution is synchronous and neither the
	// executor nor the prefilter retains the edge slice past the call.
	dec := wire.AcquireDecoder(s.wireBody(r.Body), format, s.cfg.MaxFrame)
	defer wire.ReleaseDecoder(dec)
	env, err := dec.Decode()
	tr.End(wd)
	if err != nil {
		s.decodeError()
		http.Error(w, "bad frame: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.frameIn()
	if env.Kind != want {
		http.Error(w, fmt.Sprintf("endpoint wants %v envelopes, got %v", want, env.Kind), http.StatusBadRequest)
		return
	}
	tr.Adopt(tracespan.Context{Trace: env.Trace, Span: env.Span})
	qw := tr.Start(tracespan.StageQueueWait, tracespan.Root)

	// Per-tenant bounded in-flight: a burst queues against its own tenant's
	// budget (or gives up with the client), never against other tenants.
	// Concurrent-capable tenants skip the budget — their batch calls are
	// safe to overlap, so queueing would only manufacture latency — and
	// check only that the server is still accepting work.
	if u.Concurrent() {
		select {
		case <-s.stop:
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			return
		default:
		}
	} else {
		select {
		case <-s.stop:
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			return
		default:
		}
		sem := s.sem(u.Name())
		select {
		case sem <- struct{}{}:
		default:
			// Budget full: the saturation counter records the event —
			// dsu_server_rpc_waits_total climbing is the signal to raise
			// MaxInFlight or split the tenant — then wait like before.
			if s.m != nil {
				s.m.rpcWaits.With(u.Name()).Inc()
			}
			select {
			case sem <- struct{}{}:
			case <-r.Context().Done():
				http.Error(w, "client went away", http.StatusRequestTimeout)
				return
			case <-s.stop:
				http.Error(w, "server shutting down", http.StatusServiceUnavailable)
				return
			}
		}
		defer func() { <-sem }()
	}
	tr.End(qw)

	var inflight *metrics.Gauge // nil-safe when uninstrumented
	if s.m != nil {
		inflight = s.m.rpcInFlight.With(u.Name())
	}
	inflight.Inc()
	var rep dsu.BatchReply
	var execErr error
	var edges int
	switch want {
	case wire.KindUnite:
		edges = len(env.Unite.Edges)
		rep, execErr = u.UniteAllTraced(*env.Unite, tr)
	case wire.KindQuery:
		edges = len(env.Query.Pairs)
		rep, execErr = u.SameSetAllTraced(*env.Query, tr)
	}
	inflight.Dec()
	w.Header().Set("Content-Type", format.ContentType())
	enc := wire.AcquireEncoder(s.wireWriter(w), format)
	defer wire.ReleaseEncoder(enc)
	if execErr != nil {
		// Validation failure: nothing executed, so the trace is dropped —
		// the error envelope is the whole story.
		if enc.Encode(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: execErr.Error()}) == nil {
			s.frameOut()
		}
		s.log.Debug("rpc rejected", "tenant", u.Name(), "endpoint", endpoint,
			"trace", tracespan.FormatTraceID(tr.ID()), "err", execErr.Error())
		return
	}
	re := tr.Start(tracespan.StageReplyEncode, tracespan.Root)
	renv := &wire.Envelope{Kind: wire.KindReply, Seq: env.Seq, Reply: &rep}
	if c := tr.Context(); c.Valid() {
		renv.Trace, renv.Span = c.Trace, c.Span
	}
	if enc.Encode(renv) == nil {
		s.frameOut()
	}
	tr.End(re)
	if a := tr.Attrs(tracespan.Root); a != nil {
		a.Edges = int64(edges)
		a.Merged = rep.Merged
	}
	rec.Finish(tr)
	s.log.Debug("rpc", "tenant", u.Name(), "endpoint", endpoint,
		"trace", tracespan.FormatTraceID(tr.ID()), "edges", edges, "merged", rep.Merged)
}

// streamEdgeCap converts the frame limit into a sane ceiling for
// client-requested stream buffers.
func (s *Server) streamEdgeCap() int { return s.cfg.MaxFrame / 8 }

// handleStream runs one dsu.Stream per connection (see the package docs
// for the protocol and backpressure story).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, u *dsu.Universe) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	format, ok := wire.FormatFor(r.Header.Get("Content-Type"))
	if !ok {
		http.Error(w, "unsupported content type", http.StatusUnsupportedMediaType)
		return
	}
	if s.m != nil {
		// Decremented before the end envelope, not on return: a client
		// that has read it may scrape at once.
		s.m.streams.Inc()
	}

	// Connection-level stream tuning from query parameters, clamped to the
	// server's own bounds.
	q := r.URL.Query()
	buffer := s.cfg.StreamBuffer
	if v, err := strconv.Atoi(q.Get("buffer")); err == nil && v > 0 {
		buffer = v
	}
	if edgeCap := s.streamEdgeCap(); buffer > edgeCap {
		buffer = edgeCap
	}
	inflight := 0 // dsu default (1) unless requested
	if v, err := strconv.Atoi(q.Get("inflight")); err == nil && v > 0 {
		inflight = v
	}
	if inflight > s.cfg.MaxInFlight {
		inflight = s.cfg.MaxInFlight
	}
	batch := dsu.BatchOptions{
		Prefilter:       q.Get("prefilter") == "1" || q.Get("prefilter") == "true",
		ConnectedFilter: q.Get("connected") == "1" || q.Get("connected") == "true",
	}
	if v, err := strconv.Atoi(q.Get("workers")); err == nil && v > 0 {
		// Stream batches bypass the DTO resolve step, so apply its
		// goroutine cap here.
		batch.Workers = min(v, dsu.MaxBatchWorkers)
	}
	if v, err := strconv.Atoi(q.Get("grain")); err == nil && v > 0 {
		batch.Grain = v
	}

	// The stream context dies with the client or with server Stop; either
	// way the dsu layer's cancellation errors surface at the Push/Flush
	// call sites below and in the final end envelope.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	w.Header().Set("Content-Type", format.ContentType())
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex() // HTTP/1.1: read the body while answering
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	// Replies leave through the coalescing writer: a burst of small reply
	// frames (concurrent dispatch, tiny batches) lands in one underlying
	// write and one HTTP flush instead of one of each per frame. Closing
	// it before the handler returns forces the final flush.
	fw := wire.NewFlushWriter(s.wireWriter(w), 0, func() { _ = rc.Flush() })
	defer fw.Close()
	enc := wire.AcquireEncoder(fw, format)
	defer wire.ReleaseEncoder(enc)
	var wmu sync.Mutex // OnBatch (dispatcher goroutine) vs. this handler
	write := func(env *wire.Envelope) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := enc.Encode(env); err == nil {
			s.frameOut()
		}
	}

	st := u.NewStream(
		dsu.WithStreamContext(ctx),
		dsu.WithBufferSize(buffer),
		dsu.WithMaxInFlight(inflight),
		// Honored only by concurrent-capable tenants (the dsu layer gates
		// it on the backend); plain tenants keep in-order dispatch.
		dsu.WithConcurrentBatches(),
		dsu.WithBatchOptions(batch.Options()...),
		dsu.WithOnBatch(func(br dsu.BatchResult) {
			if br.Err != nil {
				write(&wire.Envelope{Kind: wire.KindError, Seq: br.ID, Error: br.Err.Error()})
				return
			}
			// The callback runs before the trace is finished, so the
			// reply-encode span lands inside the batch's recorded tree, and
			// the reply envelope reports the batch's trace identity.
			re := br.Trace.Start(tracespan.StageReplyEncode, tracespan.Root)
			rep := dsu.ReplyOf(br)
			renv := &wire.Envelope{Kind: wire.KindReply, Seq: br.ID, Reply: &rep}
			if c := br.Trace.Context(); c.Valid() {
				renv.Trace, renv.Span = c.Trace, c.Span
			}
			write(renv)
			br.Trace.End(re)
		}),
	)
	s.log.Info("stream open", "tenant", u.Name(), "format", format.String(),
		"buffer", st.BufferSize(), "inflight", inflight, "concurrent", u.Concurrent())

	// Decode on a side goroutine so the ingest loop can select against the
	// stream context: a push-only connection otherwise blocks in a body
	// read and would never observe Stop — the handler must end promptly to
	// deliver the loss-reporting end envelope inside the drain budget.
	// PushLinked copies edges before returning, so a frame is processed
	// by the time the loop acks it.
	fr := s.readFrames(ctx, r, format)
	var abortErr error // the cancellation that cut ingestion short, if any
ingest:
	for {
		var d decoded
		select {
		case <-ctx.Done():
			abortErr = ctx.Err()
			write(&wire.Envelope{Kind: wire.KindError, Error: "stream aborted: " + abortErr.Error()})
			break ingest
		case d = <-fr.frames:
		}
		env, err := d.env, d.err
		switch {
		case err == io.EOF:
			break ingest // clean end of the edge stream
		case err != nil:
			write(&wire.Envelope{Kind: wire.KindError, Error: "bad frame: " + err.Error()})
			break ingest
		}
		switch env.Kind {
		case wire.KindUnite:
			if err := u.Validate(env.Unite.Edges); err != nil {
				// A range violation poisons nothing: reject the frame,
				// keep the stream.
				write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: err.Error()})
				break
			}
			// A traced frame's context rides into the batch its edges land
			// in (first link wins); a zero context makes this a plain Push.
			if err := st.PushLinked(dsu.TraceContext{Trace: env.Trace, Span: env.Span}, env.Unite.Edges...); err != nil {
				write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: err.Error()})
				break ingest
			}
		case wire.KindFlush:
			if err := st.Flush(); err != nil {
				write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: err.Error()})
				break ingest
			}
		default:
			write(&wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: fmt.Sprintf("stream connections take unite/flush envelopes, got %v", env.Kind)})
			break ingest
		}
		fr.ack <- struct{}{} // done with env; the decoder may reuse its scratch
	}
	fr.join(rc)

	closeErr := st.Close()
	if closeErr == nil {
		// Even when every sealed batch executed before the cancellation
		// (nothing lost), an aborted connection must not look like a clean
		// close: the client's edge stream was cut short.
		closeErr = abortErr
	}
	end := &wire.Envelope{Kind: wire.KindEnd, End: &wire.StreamEnd{
		Batches:  st.Batches(),
		Edges:    st.Edges(),
		Merged:   st.Merged(),
		Filtered: st.Filtered(),
		Failed:   st.Failed(),
	}}
	if closeErr != nil {
		end.Error = closeErr.Error()
	}
	if s.m != nil {
		s.m.streams.Dec()
	}
	observeRequest(w)
	write(end)
	s.log.Info("stream done", "tenant", u.Name(), "batches", st.Batches(),
		"edges", st.Edges(), "merged", st.Merged(), "failed", st.Failed(), "err", closeErr)
}

// handlePipe answers a pipelined sequence of batch RPCs on one
// full-duplex connection (see the package docs for the protocol). Every
// unite/query envelope executes in arrival order and answers with a
// reply or error envelope echoing its Seq; requests, replies, and the
// codecs between them all run on recycled wire buffers, and replies
// leave through the coalescing writer so pipelined small frames cost one
// write, not one apiece.
func (s *Server) handlePipe(w http.ResponseWriter, r *http.Request, u *dsu.Universe) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	format, ok := wire.FormatFor(r.Header.Get("Content-Type"))
	if !ok {
		http.Error(w, "unsupported content type", http.StatusUnsupportedMediaType)
		return
	}
	select {
	case <-s.stop:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	default:
	}

	// The pipe dies with the client or with server Stop, exactly like a
	// stream connection.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	w.Header().Set("Content-Type", format.ContentType())
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex() // HTTP/1.1: read the body while answering
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	fw := wire.NewFlushWriter(s.wireWriter(w), 0, func() { _ = rc.Flush() })
	defer fw.Close()
	enc := wire.AcquireEncoder(fw, format)
	defer wire.ReleaseEncoder(enc)
	answer := func(env *wire.Envelope) {
		if enc.Encode(env) == nil {
			s.frameOut()
		}
	}

	// Decode on a side goroutine, as handleStream does, so shutdown cuts
	// through a blocked body read.
	fr := s.readFrames(ctx, r, format)

	rec := u.TraceRecorder() // nil (all no-ops) on an untraced tenant
	sem := s.sem(u.Name())
	concurrent := u.Concurrent()
	s.log.Info("pipe open", "tenant", u.Name(), "format", format.String(), "concurrent", concurrent)

	var served uint64
	var rep dsu.BatchReply
	var renv wire.Envelope // reused across replies; Encode doesn't retain it
serve:
	for {
		var d decoded
		select {
		case <-ctx.Done():
			renv = wire.Envelope{Kind: wire.KindError, Error: "pipe aborted: " + ctx.Err().Error()}
			answer(&renv)
			break serve
		case d = <-fr.frames:
		}
		switch {
		case d.err == io.EOF:
			break serve // clean end of the request stream
		case d.err != nil:
			renv = wire.Envelope{Kind: wire.KindError, Error: "bad frame: " + d.err.Error()}
			answer(&renv)
			break serve
		}
		env := d.env
		var op string
		switch env.Kind {
		case wire.KindUnite:
			op = tracespan.OpUnite
		case wire.KindQuery:
			op = tracespan.OpQuery
		default:
			renv = wire.Envelope{Kind: wire.KindError, Seq: env.Seq,
				Error: fmt.Sprintf("pipe connections take unite/query envelopes, got %v", env.Kind)}
			answer(&renv)
			break serve
		}
		tr := rec.Start(op, tracespan.SourceRPC)
		tr.Adopt(tracespan.Context{Trace: env.Trace, Span: env.Span})
		// Per-tenant budget, as for single-shot RPC: piped requests from a
		// plain tenant serialize against the tenant's other connections;
		// concurrent-capable tenants overlap by contract.
		if !concurrent {
			qw := tr.Start(tracespan.StageQueueWait, tracespan.Root)
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				continue // the ctx.Done arm above ends the pipe
			}
			tr.End(qw)
		}
		var execErr error
		var edges int
		if env.Kind == wire.KindUnite {
			edges = len(env.Unite.Edges)
			rep, execErr = u.UniteAllTraced(*env.Unite, tr)
		} else {
			edges = len(env.Query.Pairs)
			rep, execErr = u.SameSetAllTraced(*env.Query, tr)
		}
		if !concurrent {
			<-sem
		}
		if execErr != nil {
			// Validation failure: nothing executed and nothing is poisoned —
			// answer the error and keep the pipe.
			renv = wire.Envelope{Kind: wire.KindError, Seq: env.Seq, Error: execErr.Error()}
			answer(&renv)
			fr.ack <- struct{}{}
			continue
		}
		re := tr.Start(tracespan.StageReplyEncode, tracespan.Root)
		renv = wire.Envelope{Kind: wire.KindReply, Seq: env.Seq, Reply: &rep}
		if c := tr.Context(); c.Valid() {
			renv.Trace, renv.Span = c.Trace, c.Span
		}
		answer(&renv)
		tr.End(re)
		if a := tr.Attrs(tracespan.Root); a != nil {
			a.Edges = int64(edges)
			a.Merged = rep.Merged
		}
		rec.Finish(tr)
		served++
		fr.ack <- struct{}{} // done with env; the decoder may reuse its scratch
	}
	fr.join(rc)
	s.log.Info("pipe done", "tenant", u.Name(), "served", served)
}

// decoded is one result of a connection's decoder goroutine.
type decoded struct {
	env *wire.Envelope
	err error
}

// frameReader is the decoder goroutine of a full-duplex connection
// (/stream, /pipe): it decodes the request body frame by frame into
// frames, so the serving loop can select against its context instead of
// blocking in a body read. The pooled decoder's envelopes live in its
// scratch, so it decodes the next frame only once the loop has sent on
// ack, after it has fully processed the last one. It ends after
// delivering an error (io.EOF included) or when its context ends.
type frameReader struct {
	frames chan decoded
	ack    chan struct{}
	parent context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// readFrames starts the decoder goroutine for r's body under a child of
// ctx. The handler must call join before it returns.
func (s *Server) readFrames(ctx context.Context, r *http.Request, format wire.Format) *frameReader {
	fr := &frameReader{
		frames: make(chan decoded),
		ack:    make(chan struct{}, 1),
		parent: ctx,
		done:   make(chan struct{}),
	}
	ctx, fr.cancel = context.WithCancel(ctx)
	go func() {
		defer close(fr.done)
		dec := wire.AcquireDecoder(s.wireBody(r.Body), format, s.cfg.MaxFrame)
		defer wire.ReleaseDecoder(dec)
		for {
			env, err := dec.Decode()
			if err == nil {
				s.frameIn()
			} else if err != io.EOF {
				s.decodeError()
			}
			select {
			case fr.frames <- decoded{env, err}:
				if err != nil {
					return
				}
			case <-ctx.Done():
				return
			}
			select {
			case <-fr.ack:
			case <-ctx.Done():
				return
			}
		}
	}()
	return fr
}

// join stops the decoder goroutine and waits for it to exit. A handler
// that returned while the goroutine was still inside a body read would
// race net/http, which reads the connection for the next request once
// the handler is done ("invalid concurrent Body.Read call").
//
// The goroutine can be inside a read only when the serving loop ended on
// its context: every other exit follows a frame the loop received, after
// which the goroutine either has returned or waits on ack. So only an
// aborted connection gets an expired read deadline, to cut short a read
// still blocked on a live client; the deadline also cancels the request
// context, which is already done. Where the transport has no deadline to
// set (HTTP/2), the read ends with the stream instead, and join does not
// wait for it.
func (fr *frameReader) join(rc *http.ResponseController) {
	fr.cancel()
	if fr.parent.Err() != nil && rc.SetReadDeadline(time.Now()) != nil {
		return
	}
	<-fr.done
}

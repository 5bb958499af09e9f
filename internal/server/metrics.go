package server

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// serverMetrics is the front end's own instrument set, registered onto
// the same registry as the dsu per-tenant series (Config.Metrics) so one
// /metrics scrape shows the whole stack. Every field is nil-safe; an
// uninstrumented server carries a nil *serverMetrics and every hook
// below is one pointer check.
//
// Series catalog (all prefixed dsu_server_):
//
//	dsu_server_request_seconds{endpoint,encoding,status}  request latency histogram
//	dsu_server_streams_active                             open stream connections (gauge)
//	dsu_server_frames_total{dir}                          wire envelopes in/out
//	dsu_server_bytes_total{dir}                           wire payload bytes in/out
//	dsu_server_decode_errors_total                        frames rejected by the decoder
//	dsu_server_rpc_inflight{tenant}                       RPC batches executing (gauge)
//	dsu_server_rpc_waits_total{tenant}                    RPCs that found the tenant budget full
type serverMetrics struct {
	latency      *metrics.HistogramVec
	streams      *metrics.Gauge
	frames       *metrics.CounterVec
	bytes        *metrics.CounterVec
	decodeErrors *metrics.Counter
	rpcInFlight  *metrics.GaugeVec
	rpcWaits     *metrics.CounterVec
}

// newServerMetrics registers the server families. A nil registry returns
// nil — the uninstrumented server.
func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	return &serverMetrics{
		latency:      reg.HistogramVec("dsu_server_request_seconds", "End-to-end request latency in seconds, by endpoint, wire encoding, and HTTP status.", nil, "endpoint", "encoding", "status"),
		streams:      reg.Gauge("dsu_server_streams_active", "Open stream connections."),
		frames:       reg.CounterVec("dsu_server_frames_total", "Wire envelopes decoded (in) and encoded (out) on RPC and stream connections.", "dir"),
		bytes:        reg.CounterVec("dsu_server_bytes_total", "Wire bytes read (in) and written (out) on RPC and stream connections.", "dir"),
		decodeErrors: reg.Counter("dsu_server_decode_errors_total", "Frames the wire decoder rejected (truncation, corruption, oversize)."),
		rpcInFlight:  reg.GaugeVec("dsu_server_rpc_inflight", "RPC batches currently executing, by tenant.", "tenant"),
		rpcWaits:     reg.CounterVec("dsu_server_rpc_waits_total", "RPC batches that found their tenant's in-flight budget saturated and had to wait.", "tenant"),
	}
}

// endpointOf classifies a request path into the latency histogram's
// bounded endpoint label set (unbounded label values are a cardinality
// leak, so tenant names never appear here).
func endpointOf(path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/v1/tenants" || path == "/v1/tenants/":
		return "tenants"
	case strings.HasPrefix(path, "/v1/tenants/"):
		rest := strings.TrimPrefix(path, "/v1/tenants/")
		_, action, _ := strings.Cut(rest, "/")
		switch action {
		case "":
			return "tenant"
		case "labels", "unite", "query", "stream", "pipe":
			return action
		}
		return "other"
	default:
		return "other"
	}
}

// encodingOf names the request's wire encoding for the latency label:
// "binary", "json", or "none" for the JSON-admin and unframed endpoints.
func encodingOf(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return "none"
	}
	f, ok := wire.FormatFor(ct)
	if !ok {
		return "none"
	}
	return f.String()
}

// statusRecorder captures the response status for the latency label and
// records the request's latency sample, once. Unwrap keeps
// http.ResponseController working through it — the stream handler's
// Flush and EnableFullDuplex resolve via the unwrap chain.
type statusRecorder struct {
	http.ResponseWriter
	code     int
	m        *serverMetrics
	r        *http.Request
	start    time.Time
	observed bool
}

// observe records the request into the latency histogram unless it
// already has been. ServeHTTP calls it when the handler returns; a
// handler whose last frame tells the client it is done (the stream's end
// envelope) calls it before writing that frame, so a client that scrapes
// after reading it finds the sample.
func (s *statusRecorder) observe() {
	if s.observed {
		return
	}
	s.observed = true
	s.m.latency.With(endpointOf(s.r.URL.Path), encodingOf(s.r), strconv.Itoa(s.status())).
		Observe(time.Since(s.start).Seconds())
}

// observeRequest is statusRecorder.observe for a handler's writer; it is
// a no-op on an uninstrumented server, whose writer is not a recorder.
func observeRequest(w http.ResponseWriter) {
	if sr, ok := w.(*statusRecorder); ok {
		sr.observe()
	}
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }

func (s *statusRecorder) status() int {
	if s.code == 0 {
		return http.StatusOK
	}
	return s.code
}

// countingReader tallies wire bytes read from a request body into a
// counter (nil counter: still works, records nothing).
type countingReader struct {
	r io.Reader
	c *metrics.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

// countingWriter tallies wire bytes written to a response.
type countingWriter struct {
	w io.Writer
	c *metrics.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

// wireBody wraps a request body for decode accounting; without
// instruments it returns the body untouched (no wrapper allocation).
func (s *Server) wireBody(r io.Reader) io.Reader {
	if s.m == nil {
		return r
	}
	return &countingReader{r: r, c: s.m.bytes.With("in")}
}

// wireWriter wraps a response writer for encode accounting.
func (s *Server) wireWriter(w io.Writer) io.Writer {
	if s.m == nil {
		return w
	}
	return &countingWriter{w: w, c: s.m.bytes.With("out")}
}

// frameIn/frameOut/decodeError are the envelope-count hooks.
func (s *Server) frameIn() {
	if s.m != nil {
		s.m.frames.With("in").Inc()
	}
}

func (s *Server) frameOut() {
	if s.m != nil {
		s.m.frames.With("out").Inc()
	}
}

func (s *Server) decodeError() {
	if s.m != nil {
		s.m.decodeErrors.Inc()
	}
}

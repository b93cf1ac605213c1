// Request-scoped observability for the serving layer: the tracing
// middleware every /v1 planning route runs under, and the /debug
// endpoints that expose what it records.
//
// Each request gets a trace ID — accepted from a sane X-Trace-Id header
// or generated — and a span tree rooted at the route's handler. When the
// handler returns, the middleware closes the root span, matches the
// latency against the route's SLO, appends a Record (with the full span
// snapshot) to the flight recorder, and writes one structured JSON log
// line. The trace ID is echoed in the X-Trace-Id response header, so a
// caller holding a slow response can go straight to
// /debug/flightrec?trace=<id>.
package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"looppart"
	"looppart/internal/obs"
	"looppart/internal/plancache"
)

// statusWriter captures the response status code and body size for the
// request record.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// traced wraps a planning handler in the observability envelope. The
// root span is named after the route ("/v1/plan" → "server.plan") and
// ends into the registry as the route's latency histogram
// (server.plan.latency); handlers and the layers below them attach child
// spans and stamp the root's cache / key / error attributes through the
// request context.
func (s *Server) traced(route string, h http.HandlerFunc) http.HandlerFunc {
	root := "server." + strings.ReplaceAll(strings.TrimPrefix(route, "/v1/"), "/", ".")
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(obs.SanitizeID(r.Header.Get("X-Trace-Id")), root, s.cfg.Registry)
		ctx := obs.WithTrace(r.Context(), tr)
		w.Header().Set("X-Trace-Id", tr.ID())
		sw := &statusWriter{ResponseWriter: w}
		start := tr.Start()
		h(sw, r.WithContext(ctx))
		lat := time.Since(start)
		if sw.status == 0 {
			// Handler wrote nothing (nothing to say = success).
			sw.status = http.StatusOK
		}
		rootSp := tr.Root()
		rootSp.SetAttr("status", sw.status)
		rootSp.End()

		breached, _ := s.cfg.SLO.Observe(route, lat, tr.ID())
		rec := &obs.Record{
			TraceID:   tr.ID(),
			Route:     route,
			Status:    sw.status,
			Start:     start,
			LatencyNs: lat.Nanoseconds(),
			SLOBreach: breached,
			Spans:     rootSp.Snapshot(),
		}
		if v, ok := rootSp.Attr("cache").(string); ok {
			rec.Cache = v
		}
		if v, ok := rootSp.Attr("key").(string); ok {
			rec.Key = v
		}
		if v, ok := rootSp.Attr("error").(string); ok {
			rec.Error = v
		}
		rec.DroppedSpans, rec.DroppedAttrs = tr.Dropped()
		s.cfg.Recorder.Add(rec)
		obs.LogRecord(s.cfg.Logger, rec)
	}
}

// fail records the error on the request's root span (so the flight
// record carries it) and writes the JSON error response.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, code int, msg string) {
	obs.TraceFrom(r.Context()).Root().SetAttr("error", msg)
	writeError(w, code, msg)
}

// flightrecResponse frames GET /debug/flightrec.
type flightrecResponse struct {
	Stats   obs.RecorderStats `json:"stats"`
	Matched int               `json:"matched"`
	Records []*obs.Record     `json:"records"`
}

// handleFlightrec dumps the flight recorder, newest first. Filters:
// ?trace=<id> (exact), ?key=<substr>, ?status=<code>, ?class=<n> (5 =
// 500..599), ?min_latency=<duration>, ?breach=1, ?n=<limit>.
func (s *Server) handleFlightrec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	f := obs.Filter{
		TraceID:    q.Get("trace"),
		Key:        q.Get("key"),
		BreachOnly: q.Get("breach") == "1",
	}
	if v := q.Get("status"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad status filter: "+v)
			return
		}
		f.Status = n
	}
	if v := q.Get("class"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad class filter: "+v)
			return
		}
		f.StatusClass = n
	}
	if v := q.Get("min_latency"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad min_latency filter: "+v)
			return
		}
		f.MinLatency = d
	}
	limit := 0
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad n: "+v)
			return
		}
		limit = n
	}

	resp := flightrecResponse{Stats: s.cfg.Recorder.Stats(), Records: []*obs.Record{}}
	for _, rec := range s.cfg.Recorder.Records() {
		if !f.Match(rec) {
			continue
		}
		resp.Matched++
		if limit == 0 || len(resp.Records) < limit {
			resp.Records = append(resp.Records, rec)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// debugCacheResponse frames GET /debug/cache: the plan cache's byte
// occupancy and top-K hot keys, plus the live singleflight flights with
// their coalesced-waiter counts.
type debugCacheResponse struct {
	Cache   plancache.Stats        `json:"cache"`
	TopKeys []plancache.KeyStat    `json:"top_keys"`
	Flights []plancache.FlightInfo `json:"flights"`
	Service looppart.ServiceStats  `json:"service"`
}

// defaultTopKeys is how many hot keys /debug/cache lists without ?top=.
const defaultTopKeys = 16

func (s *Server) handleDebugCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	k := defaultTopKeys
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad top: "+v)
			return
		}
		k = n
	}
	st := s.cfg.Service.Stats()
	resp := debugCacheResponse{
		Cache:   st.Cache,
		TopKeys: s.cfg.Service.TopKeys(k),
		Flights: s.cfg.Service.Flights(),
		Service: st,
	}
	if resp.TopKeys == nil {
		resp.TopKeys = []plancache.KeyStat{}
	}
	if resp.Flights == nil {
		resp.Flights = []plancache.FlightInfo{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// sloResponse frames GET /debug/slo.
type sloResponse struct {
	Routes []obs.RouteStatus `json:"routes"`
}

func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	routes := s.cfg.SLO.Status()
	if routes == nil {
		routes = []obs.RouteStatus{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sloResponse{Routes: routes})
}

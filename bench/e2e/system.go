package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// fleetReplicas is fleet-open's replica count.
const fleetReplicas = 3

// respWriter is a minimal in-memory http.ResponseWriter: the benchmark
// calls handlers directly, with no sockets, as the cluster's in-process
// fleet does.
type respWriter struct {
	hdr   http.Header
	code  int
	wrote bool
	buf   bytes.Buffer
}

func newRespWriter() *respWriter {
	return &respWriter{hdr: make(http.Header, 4), code: http.StatusOK}
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.buf.Write(p)
}

// inProc is the router's transport to one replica: it calls the
// replica's handler on the forwarding goroutine.
type inProc struct{ h http.Handler }

func (t inProc) RoundTrip(req *http.Request) (*http.Response, error) {
	w := newRespWriter()
	t.h.ServeHTTP(w, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		Status:        http.StatusText(w.code),
		StatusCode:    w.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.hdr,
		Body:          io.NopCloser(bytes.NewReader(w.buf.Bytes())),
		ContentLength: int64(w.buf.Len()),
		Request:       req,
	}, nil
}

// system is the service under test: one server, or fleetReplicas
// servers behind a cluster router.
type system struct {
	entry   http.Handler
	servers []*server.Server
	names   []string
	router  *cluster.Router
}

// newSystem builds the service with production defaults. A traced
// system wraps the router and every replica handler in span recorders
// and sends each server's wide events to sink.
func newSystem(w *workload, traced bool, sink io.Writer) (*system, error) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := server.DefaultConfig(1)
	cfg.EventSink = sink
	n := 1
	if w.open {
		n = fleetReplicas
	}
	sys := &system{}
	var backends []cluster.Backend
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("replica-%d", i)
		s := server.New(log.With("replica", name), cfg)
		h := s.Handler()
		if traced {
			h = spanHandler{layer: layerReplica, replica: int8(i), next: h}
		}
		sys.servers = append(sys.servers, s)
		sys.names = append(sys.names, name)
		sys.entry = h
		backends = append(backends, cluster.Backend{Name: name, URL: "http://" + name, Transport: inProc{h}})
	}
	if w.open {
		rt, err := cluster.New(log, cluster.Config{Backends: backends, Policy: cluster.PolicyAffinity})
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("build router: %w", err)
		}
		sys.router = rt
		sys.entry = rt.Handler()
		if traced {
			sys.entry = spanHandler{layer: layerRouter, next: sys.entry}
		}
	}
	return sys, nil
}

func (s *system) close() {
	if s.router != nil {
		s.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		_ = srv.Close(ctx) // only drains the idle async job queue
	}
}

// post sends one /solve body to h on the calling goroutine.
func post(ctx context.Context, h http.Handler, body []byte, reqID string) *respWriter {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://bench/solve", bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and URL: cannot fail
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(server.RequestIDHeader, reqID)
	}
	w := newRespWriter()
	h.ServeHTTP(w, req)
	return w
}

// scrape sums every server's /metrics exposition into series → value
// (series keyed by name plus labels, as printed).
func (s *system) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for _, srv := range s.servers {
		req, err := http.NewRequest(http.MethodGet, "http://bench/metrics", nil)
		if err != nil {
			return nil, err
		}
		w := newRespWriter()
		srv.Handler().ServeHTTP(w, req)
		if w.code != http.StatusOK {
			return nil, fmt.Errorf("GET /metrics: HTTP %d", w.code)
		}
		sc := bufio.NewScanner(&w.buf)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("parse /metrics line %q: %w", line, err)
			}
			out[line[:i]] += v
		}
	}
	return out, nil
}

// routed returns how many requests the router forwarded to each
// replica (nil without a router).
func (s *system) routed() []int64 {
	if s.router == nil {
		return nil
	}
	out := make([]int64, len(s.names))
	for i, n := range s.names {
		out[i] = s.router.Registry().RoutedCount(n)
	}
	return out
}

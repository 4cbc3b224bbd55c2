package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// statusRecorder captures the response status for the access log while
// forwarding Flush, which the SSE events endpoint needs: wrapping a
// ResponseWriter in a plain struct would hide the Flusher and silently
// break streaming.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reqSeq numbers requests process-wide so log lines from concurrent
// requests can be correlated.
var reqSeq atomic.Uint64

// LogRequests wraps next in the access-log middleware: one structured
// line per request with a request id, method, path, status, and wall
// time. Exported so the cluster coordinator's handler logs in the same
// format as a worker's.
func LogRequests(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		log.Info("request",
			"req", fmt.Sprintf("r%06d", reqSeq.Add(1)),
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"duration_ms", float64(time.Since(start).Microseconds())/1000)
	})
}

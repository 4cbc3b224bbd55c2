package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"
)

// defaultProgressInterval is how often the events stream emits a progress
// event while the job runs.
const defaultProgressInterval = 250 * time.Millisecond

// eventProgress is the payload of "progress" and "done" SSE events: the
// job's lightweight status, without the (potentially large) result.
type eventProgress struct {
	ID       string  `json:"id"`
	Status   Status  `json:"status"`
	Progress float64 `json:"progress"`
	Error    string  `json:"error,omitempty"`
}

func (j *Job) eventView() eventProgress {
	j.mu.Lock()
	defer j.mu.Unlock()
	return eventProgress{ID: j.ID, Status: j.status, Progress: j.progress, Error: j.errMsg}
}

// writeEvent emits one SSE frame. The frame is assembled with plain
// writes rather than fmt so the per-event cost is the JSON encoding
// alone (no operand boxing or format parsing on the stream path).
func writeEvent(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	io.WriteString(w, "event: ")
	io.WriteString(w, event)
	io.WriteString(w, "\ndata: ")
	w.Write(b)
	io.WriteString(w, "\n\n")
}

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent Events stream
// of the job's life. Buffered telemetry epochs replay first, then epochs
// arrive live as the simulator crosses boundaries ("epoch" events),
// interleaved with periodic "progress" events; a final "done" event
// carries the terminal status and the stream closes. Works for jobs
// without telemetry too (progress + done only).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrNoSuchJob)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, ch, cancel := j.subscribeEpochs()
	defer cancel()
	for i := range history {
		writeEvent(w, "epoch", &history[i])
	}
	writeEvent(w, "progress", j.eventView())
	fl.Flush()

	interval := s.progressEvery
	if interval <= 0 {
		interval = defaultProgressInterval
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case e := <-ch:
			writeEvent(w, "epoch", &e)
			fl.Flush()
		case <-ticker.C:
			writeEvent(w, "progress", j.eventView())
			fl.Flush()
		case <-j.Done():
			// Flush any epochs that raced with termination, then close.
			for {
				select {
				case e := <-ch:
					writeEvent(w, "epoch", &e)
					continue
				default:
				}
				break
			}
			writeEvent(w, "done", j.eventView())
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleTimeseries is GET /v1/jobs/{id}/timeseries: the job's telemetry
// series as JSON, or as NDJSON (one epoch per line, morcsim's -telemetry
// format) with ?format=ndjson. While the job runs it serves the epochs
// streamed so far; afterwards, the exact final series off the result.
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, ErrNoSuchJob)
		return
	}
	ts, ok := j.timeseries()
	if !ok {
		WriteError(w, http.StatusNotFound,
			errors.New("job records no telemetry (submit with \"telemetry\": <epoch instructions>)"))
		return
	}
	switch r.URL.Query().Get("format") {
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		ts.WriteNDJSON(w)
	case "", "json":
		WriteJSON(w, http.StatusOK, ts)
	default:
		WriteError(w, http.StatusBadRequest, errors.New("unknown format (want json or ndjson)"))
	}
}

package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// MaxSpecBytes bounds a submitted job document; anything larger is refused
// before decoding.
const MaxSpecBytes = 1 << 20

// NewServer returns the daemon's HTTP API over q:
//
//	POST /v1/jobs              submit a scalabletcc/job v1 document → 202 + status
//	                           (400 invalid spec, 429 + Retry-After queue full)
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         poll one job's status
//	GET  /v1/jobs/{id}/result  terminal result (409 while still pending/running)
//	GET  /v1/jobs/{id}/events  live event stream (SSE; data frames carry the
//	                           job's scalabletcc/events v1 JSONL lines verbatim)
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
//	POST /v1/jobs/{id}/fork    new job from {id}'s latest kernel checkpoint
//	                           under an edited spec (400 on edits that would
//	                           invalidate the snapshot; requires ForkPrep)
//	GET  /healthz              liveness + queue depth
//
// cmd/tccd wraps this mux with its own discovery endpoints (/v1/protocols,
// /v1/profiles) that need the tcc registries this leaf package cannot see.
func NewServer(q *Queue) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, ok := readSpec(w, r)
		if !ok {
			return
		}
		st, err := q.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Jobs []*JobStatus `json:"jobs"`
		}{q.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := q.Status(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, st, ok := q.Result(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		switch st.State {
		case StateQueued, StateRunning:
			httpError(w, http.StatusConflict,
				fmt.Sprintf("job %s is %s; result not ready", st.ID, st.State))
		default:
			writeJSON(w, http.StatusOK, struct {
				Status *JobStatus `json:"status"`
				Result *JobResult `json:"result,omitempty"`
			}{st, res})
		}
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := q.Cancel(id); err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		st, _ := q.Status(id)
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/fork", func(w http.ResponseWriter, r *http.Request) {
		spec, ok := readSpec(w, r)
		if !ok {
			return
		}
		st, err := q.Fork(r.PathValue("id"), spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrUnknownJob):
			httpError(w, http.StatusNotFound, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(q, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			OK         bool `json:"ok"`
			QueueDepth int  `json:"queue_depth"`
		}{true, q.QueueDepth()})
	})
	return mux
}

// readSpec decodes the job document in r's body. On a body over
// MaxSpecBytes (413), an unreadable one or a spec that does not decode
// (400) it writes the error response and returns false.
func readSpec(w http.ResponseWriter, r *http.Request) (*JobSpec, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return nil, false
	}
	if len(body) > MaxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("job spec exceeds %d bytes", MaxSpecBytes))
		return nil, false
	}
	spec, err := DecodeJobSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return spec, true
}

// serveEvents streams a job's event log as SSE. Each complete JSONL line
// becomes one `data:` frame carrying the line verbatim (minus its newline),
// so concatenating the data payloads plus a newline apiece reconstructs the
// exact scalabletcc/events v1 byte stream. A subscriber attaching mid-run
// first replays the prefix, then tails live appends. The stream ends with
// an `event: done` frame carrying the job's terminal state.
func serveEvents(q *Queue, w http.ResponseWriter, r *http.Request) {
	log, ok := q.Events(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// One wake-up's frames are built in frames and sent with one Write and
	// one Flush: everything available is gathered, a block view at a time,
	// and closed comes only with the last view. frames starts with room for
	// two blocks of lines, more than a subscriber that keeps up gets at one
	// wake-up. partial holds the bytes after the last newline seen so far,
	// copied out of their view.
	frames, partial := make([]byte, 0, 2*blockSize), []byte(nil)
	off := 0
	for {
		data, closed, err := log.Wait(r.Context(), off)
		frames = frames[:0]
		for err == nil {
			off += len(data)
			frames, partial = appendFrames(frames, partial, data)
			if closed || off >= log.Len() {
				break
			}
			data, closed, err = log.Wait(r.Context(), off)
		}
		if err != nil {
			return // client went away, or the spilled log is unreadable
		}
		if closed {
			// A trailing partial line (an executor that did not end its
			// stream on a line) is not a valid events line, so drop it.
			st, _ := q.Status(r.PathValue("id"))
			state := StateDone
			if st != nil {
				state = st.State
			}
			frames = fmt.Appendf(frames, "event: done\ndata: {\"k\":\"job-done\",\"state\":%q}\n\n", state)
		}
		if len(frames) > 0 {
			if _, err := w.Write(frames); err != nil {
				return
			}
			flusher.Flush()
		}
		if closed {
			return
		}
	}
}

// appendFrames appends a `data:` frame for each line that data completes.
// partial is the start of a line begun in an earlier view; the bytes after
// data's last newline are returned as the next partial.
func appendFrames(frames, partial, data []byte) ([]byte, []byte) {
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return frames, append(partial, data...)
		}
		frames = append(frames, "data: "...)
		frames = append(append(frames, partial...), data[:i]...)
		frames = append(frames, "\n\n"...)
		partial, data = partial[:0], data[i+1:]
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// retryAfterSeconds is the hint returned with 429/503 backpressure.
const retryAfterSeconds = 2

// Handler returns the letdmad HTTP API:
//
//	GET  /healthz     liveness (200 while the process runs)
//	GET  /readyz      readiness (503 once draining)
//	POST /jobs        submit one JobSpec -> 202 queued / 200 cached /
//	                  409 known-but-incomplete duplicate is NOT an error:
//	                  dedup returns the current snapshot with 202 /
//	                  429 + Retry-After when the queue is full /
//	                  503 + Retry-After when draining / 400 invalid
//	GET  /jobs        all jobs in admission order
//	GET  /jobs/{key}  one job by content-addressed key
//	POST /jobs/batch  submit many specs; ?wait=1 blocks until terminal
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{key}", s.handleStatus)
	mux.HandleFunc("POST /jobs/batch", s.handleBatch)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK // served from the content-addressed cache
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job key")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// batchRequest is the POST /jobs/batch body.
type batchRequest struct {
	Jobs []JobSpec `json:"jobs"`
	// Wait blocks the response until every admitted job is terminal
	// (bounded by the request context); ?wait=1 is equivalent.
	Wait bool `json:"wait,omitempty"`
}

// batchEntry is one per-spec outcome in the batch response.
type batchEntry struct {
	Status *JobStatus `json:"status,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// maxBatchJobs bounds one batch request.
const maxBatchJobs = 256

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch request: "+err.Error())
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		req.Wait = true
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		writeError(w, http.StatusBadRequest, "batch exceeds "+strconv.Itoa(maxBatchJobs)+" jobs")
		return
	}

	// Canonicalize, hash and admit the jobs one by one in request order,
	// so journal order matches the request and the cap is enforced
	// exactly. A bad entry fails alone, not the batch.
	entries := make([]batchEntry, len(req.Jobs))
	for i, job := range req.Jobs {
		spec, canon, err := normalizeSpec(job)
		if err != nil {
			entries[i] = batchEntry{Error: err.Error()}
			continue
		}
		st, err := s.admit(spec, jobKey(canon, spec))
		if err != nil {
			entries[i] = batchEntry{Error: err.Error()}
			continue
		}
		entries[i] = batchEntry{Status: &st}
	}

	if req.Wait {
		for i := range entries {
			if entries[i].Status == nil {
				continue
			}
			done := s.doneChan(entries[i].Status.Key)
			if done == nil {
				continue
			}
			select {
			case <-done:
			case <-r.Context().Done():
				writeError(w, http.StatusRequestTimeout, "request canceled while waiting for batch")
				return
			}
			if st, ok := s.Status(entries[i].Status.Key); ok {
				entries[i].Status = &st
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": entries})
}

// writeSubmitError maps the admission sentinels onto HTTP statuses.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errJournal):
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A failed write means the client went away; there is no one to tell.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

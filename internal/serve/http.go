package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxPredictBody bounds a predict request body. The largest supported input
// (a batch-1 image) is a few hundred KB of JSON; 8 MB leaves headroom
// without letting a client exhaust memory.
const maxPredictBody = 8 << 20

// maxReloadBody bounds an inline reload artifact. DropBack artifacts are a
// few MB at most (tracked weights only); 64 MB leaves generous headroom.
const maxReloadBody = 64 << 20

// HandlerConfig configures the HTTP front end.
type HandlerConfig struct {
	// RequestTimeout bounds one predict request end to end (queue wait +
	// inference). 0 means no server-imposed timeout. Expired requests get
	// HTTP 504.
	RequestTimeout time.Duration
	// ReloadPath optionally names the artifact file POST /v1/reload reads
	// when the request body carries the JSON form {"path": "..."} with an
	// empty path, and the file SIGHUP reloads from. Requests may also ship
	// artifact bytes inline (non-JSON body) or name any path explicitly.
	ReloadPath string
}

// PredictRequest is the /v1/predict request body.
type PredictRequest struct {
	// Input is the flattened input vector; its length must equal the
	// product of the model's input shape.
	Input []float32 `json:"input"`
}

// ReloadRequest is the JSON form of the /v1/reload request body.
type ReloadRequest struct {
	// Path names the artifact file on the server's filesystem. Empty falls
	// back to HandlerConfig.ReloadPath.
	Path string `json:"path"`
	// CanaryPercent routes this share of traffic to the new version (0
	// swaps immediately). See ReloadOptions.
	CanaryPercent int `json:"canary_percent"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// NewHandler exposes a Server over HTTP:
//
//	POST /v1/predict  {"input": [...]} -> {"class", "probs", "batch_size", "version"}
//	POST /v1/reload   {"path", "canary_percent"} or raw artifact bytes -> ReloadResult
//	GET  /healthz     liveness  (200 while the process runs)
//	GET  /readyz      readiness (200 accepting traffic, 503 draining)
//	GET  /statsz      Stats snapshot as JSON
//
// Predict requests carry their priority tier in the X-Priority header
// (interactive, batch, or best-effort; absent means interactive).
//
// Error mapping: bad input 400, an input that overflows to non-finite
// probabilities 422, queue overflow 429 (with a Retry-After computed from
// queue depth and the observed drain rate), draining 503, request timeout
// 504, inference failure 500. Reload: not configured 501,
// concurrent reload 409, rejected artifact 422.
func NewHandler(s *Server, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		tier, err := ParseTier(r.Header.Get(TierHeader))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxPredictBody)
		var req PredictRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding request: %v", err)})
			return
		}
		ctx := r.Context()
		if hc.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, hc.RequestTimeout)
			defer cancel()
		}
		pred, err := s.PredictTier(ctx, req.Input, tier)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, pred)
		case errors.Is(err, ErrBadInput):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		case errors.Is(err, ErrNonFinite):
			writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		case errors.Is(err, ErrDraining):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "request timed out"})
		default:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
	})
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxReloadBody)
		var res ReloadResult
		var err error
		if ct := r.Header.Get("Content-Type"); ct == "" || ct == "application/json" {
			var req ReloadRequest
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			// An empty body (io.EOF) means "use defaults", so a bare
			// `curl -X POST /v1/reload` reloads from the configured path.
			if derr := dec.Decode(&req); derr != nil && !errors.Is(derr, io.EOF) {
				writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding request: %v", derr)})
				return
			}
			path := req.Path
			if path == "" {
				path = hc.ReloadPath
			}
			if path == "" {
				writeJSON(w, http.StatusBadRequest, errorBody{Error: "no artifact path: set \"path\" in the request or configure a default"})
				return
			}
			res, err = s.ReloadFile(path, ReloadOptions{CanaryPercent: req.CanaryPercent})
		} else {
			// Raw artifact bytes; canary percent via query parameter.
			pct := 0
			if q := r.URL.Query().Get("canary_percent"); q != "" {
				pct, err = strconv.Atoi(q)
				if err != nil {
					writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("canary_percent: %v", err)})
					return
				}
			}
			res, err = s.Reload(r.Body, ReloadOptions{CanaryPercent: pct})
		}
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, res)
		case errors.Is(err, ErrReloadUnsupported):
			writeJSON(w, http.StatusNotImplemented, errorBody{Error: err.Error()})
		case errors.Is(err, ErrReloadInProgress):
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		case errors.Is(err, ErrBadInput):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		case errors.Is(err, ErrBadArtifact):
			writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// writeJSON writes v as a JSON response with the given status. It encodes
// before writing the header, so a value that cannot be encoded becomes a
// 500 with a JSON error body rather than a status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(errorBody{Error: fmt.Sprintf("encoding response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

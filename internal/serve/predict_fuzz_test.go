package serve_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/serve"
)

// FuzzPredictRequest drives POST /v1/predict through NewHandler with
// arbitrary bodies and X-Priority headers. Whatever arrives, the handler
// must not panic and must not answer 5xx: a malformed body, an unknown tier
// or a wrong-length input is the client's error (400), an input that
// overflows to non-finite probabilities is 422, a full queue is 429. Every
// response body is valid JSON, and every 200 carries finite probabilities.
func FuzzPredictRequest(f *testing.F) {
	ok := `{"input":[` + strings.TrimSuffix(strings.Repeat("0.5,", 16), ",") + `]}`
	f.Add([]byte(ok), "")
	f.Add([]byte(ok), "batch")
	f.Add([]byte(ok), "best-effort")
	f.Add([]byte(ok), "urgent")
	f.Add([]byte(`{"input":[1,2,3]}`), "interactive")
	f.Add([]byte(`{"input":[1e38,-1e38,1e38,-1e38,1e38,-1e38,1e38,-1e38,1e38,-1e38,1e38,-1e38,1e38,-1e38,1e38,-1e38]}`), "")
	f.Add([]byte(`{"input":[`+strings.TrimSuffix(strings.Repeat("3.4e38,", 16), ",")+`]}`), "")
	f.Add([]byte(`{"input":null}`), "")
	f.Add([]byte(`{"input":[1],"extra":true}`), "")
	f.Add([]byte(`{"input":["x"]}`), "")
	f.Add([]byte(`{`), "")
	f.Add([]byte{}, "")

	s, err := serve.New(serve.Config{
		NewSparseReplica: serve.ModelReplicas(func() (*nn.Model, error) {
			return models.NewMLP(models.MLPConfig{Name: "fuzz", In: 16, Hidden: []int{12}, Classes: 4, Seed: 7}), nil
		}),
		InputShape: []int{16},
		Replicas:   1,
		MaxBatch:   4,
		MaxWait:    time.Millisecond,
		QueueDepth: 16,
	})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	h := serve.NewHandler(s, serve.HandlerConfig{})

	f.Fuzz(func(t *testing.T, body []byte, priority string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		req.Header.Set(serve.TierHeader, priority)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q, priority %q: %s", rec.Code, body, priority, rec.Body.String())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d for body %q: response is not JSON: %q", rec.Code, body, rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			var pred serve.Prediction
			if err := json.Unmarshal(rec.Body.Bytes(), &pred); err != nil {
				t.Fatalf("200 for body %q does not decode: %v", body, err)
			}
			for _, p := range pred.Probs {
				if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
					t.Fatalf("200 for body %q carries non-finite probabilities %v", body, pred.Probs)
				}
			}
		}
	})
}

package serve_test

// Fuzz the /v1/reload request path with corrupted artifact bytes: whatever
// combination of truncation and bit flips arrives, the server must either
// complete a verified reload (HTTP 200) or reject it (HTTP 422) — never
// serve a partially-loaded version, never stop answering healthz, and keep
// every prediction bit-identical to the artifact's reference model.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dropback/internal/faults"
	"dropback/internal/serve"
	"dropback/internal/sparse"
)

func FuzzReloadArtifact(f *testing.F) {
	artA := trainedArtifact(1)
	raw := artifactBytes(f, artA)

	// Seeds: pristine bytes, a header flip, a payload flip, a checksum
	// trailer flip, a torn tail, and an empty body.
	f.Add(int64(-1), uint8(0), -1)
	f.Add(int64(4), uint8(1), -1)
	f.Add(int64(len(raw)/2), uint8(7), -1)
	f.Add(int64(len(raw)-2), uint8(3), -1)
	f.Add(int64(-1), uint8(0), len(raw)-5)
	f.Add(int64(-1), uint8(0), 0)

	rng := rand.New(rand.NewSource(13))
	input := chaosInputs(rng, 1)[0]
	ref := refPredict(f, artA, input)

	f.Fuzz(func(t *testing.T, offset int64, bit uint8, truncate int) {
		planA := compilePlan(t, artA)
		s, err := serve.New(serve.Config{
			NewSparseReplica: func() (serve.Replica, error) { return sparse.NewExecutor(planA), nil },
			Compile:          chaosCompile(),
			InputShape:       chaosShape,
			Replicas:         1,
			MaxBatch:         2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(serve.NewHandler(s, serve.HandlerConfig{RequestTimeout: 10 * time.Second}))
		defer ts.Close()

		body := raw
		if truncate >= 0 && truncate < len(raw) {
			body = raw[:truncate]
		}
		var rd io.Reader = bytes.NewReader(body)
		flipped := offset >= 0 && offset < int64(len(body))
		if flipped {
			rd = &faults.FlipReader{R: rd, Offset: offset, Bit: bit}
		}
		corrupted := flipped || len(body) != len(raw)

		// Liveness probe races the reload: healthz must answer 200 the whole
		// time, loaded artifact or not.
		stopProbe := make(chan struct{})
		probeDone := make(chan struct{})
		var badHealth atomic.Int64
		go func() {
			defer close(probeDone)
			for {
				select {
				case <-stopProbe:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil || resp.StatusCode != http.StatusOK {
					badHealth.Add(1)
				}
				if err == nil {
					resp.Body.Close()
				}
			}
		}()

		resp, err := http.Post(ts.URL+"/v1/reload", "application/octet-stream", rd)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		close(stopProbe)
		<-probeDone

		if corrupted && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("corrupted artifact (flip@%d truncate=%d): status %d, want 422", offset, truncate, resp.StatusCode)
		}
		if !corrupted && resp.StatusCode != http.StatusOK {
			t.Errorf("pristine artifact: status %d, want 200", resp.StatusCode)
		}
		if n := badHealth.Load(); n != 0 {
			t.Errorf("healthz failed %d times during reload", n)
		}

		// Whatever happened, the server must hold the floor: the artifact on
		// both sides of this reload is A, so every answer is A's reference.
		pred, err := s.Predict(context.Background(), input)
		if err != nil {
			t.Fatalf("predict after reload attempt: %v", err)
		}
		if !samePred(pred, ref) {
			t.Errorf("answer from version %q not bit-identical to the artifact's reference (partially-loaded version?)", pred.Version)
		}
		var st serve.Stats
		sresp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if corrupted && st.Reloads != 0 {
			t.Errorf("stats: reloads=%d after corrupt-only attempts, want 0", st.Reloads)
		}
		if !corrupted && (st.Reloads != 1 || st.Stable.ID == "v1") {
			t.Errorf("stats: reloads=%d stable=%q after verified reload, want 1 swap off v1", st.Reloads, st.Stable.ID)
		}
	})
}

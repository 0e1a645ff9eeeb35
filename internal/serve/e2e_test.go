package serve_test

// Black-box end-to-end test of the serving path through the public dropback
// facade: compress a model to a sparse artifact, write and reload it, rebuild
// artifact-seeded replicas, and serve predictions over real HTTP. (The
// white-box tests live in package serve; this file is the external test
// package, so it may import the dropback root without an import cycle.)

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"dropback"
	"dropback/internal/serve"
)

func TestServeEndToEndHTTP(t *testing.T) {
	const seed = 11

	// Deploy-side artifact round trip: compress the trained model, write the
	// artifact, and reload it as the server would.
	trained := dropback.MNIST100100(seed)
	art := dropback.CompressSparse(trained)
	path := filepath.Join(t.TempDir(), "model.dbsp")
	if err := dropback.SaveSparse(path, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := dropback.LoadSparse(path)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := dropback.NewServer(dropback.ServeConfig{
		NewSparseReplica: serve.ModelReplicas(func() (*dropback.Model, error) {
			m := dropback.MNIST100100(seed)
			return m, loaded.Apply(m)
		}),
		InputShape: []int{784},
		Replicas:   2,
		MaxBatch:   4,
		QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(dropback.NewServeHandler(srv, dropback.ServeHandlerConfig{RequestTimeout: 5 * time.Second}))
	defer ts.Close()

	input := make([]float32, 784)
	for i := range input {
		input[i] = float32(i%17) / 17
	}

	if !t.Run("predict", func(t *testing.T) {
		body, _ := json.Marshal(map[string]any{"input": input})
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: status %d, want 200", resp.StatusCode)
		}
		var pred dropback.Prediction
		if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
			t.Fatal(err)
		}
		if pred.Class < 0 || pred.Class >= 10 {
			t.Errorf("class %d outside [0, 10)", pred.Class)
		}
		if len(pred.Probs) != 10 {
			t.Fatalf("%d probs, want 10", len(pred.Probs))
		}
		sum := 0.0
		for _, p := range pred.Probs {
			sum += float64(p)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Errorf("probs sum to %g, want ~1", sum)
		}
	}) {
		return
	}

	t.Run("bad-requests", func(t *testing.T) {
		cases := []struct {
			name, body string
			status     int
		}{
			{"wrong-length", `{"input":[1,2,3]}`, http.StatusBadRequest},
			{"not-json", `nope`, http.StatusBadRequest},
			{"unknown-field", `{"inputs":[1]}`, http.StatusBadRequest},
		}
		for _, c := range cases {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
			}
		}
	})

	t.Run("health-and-stats", func(t *testing.T) {
		for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/statsz": 200} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if path == "/statsz" {
				var st dropback.ServerStats
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Fatal(err)
				}
				if st.Replicas != 2 {
					t.Errorf("statsz replicas %d, want 2", st.Replicas)
				}
				if st.Requests == 0 {
					t.Error("statsz reports zero requests after a successful predict")
				}
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
			}
		}
	})

	t.Run("drain", func(t *testing.T) {
		srv.Close()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
		}
		body, _ := json.Marshal(map[string]any{"input": input})
		presp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		if presp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("predict while draining: status %d, want 503", presp.StatusCode)
		}
	})
}

// TestServeQuantizedArtifact checks the quantized deployment path end to end:
// sparse artifact -> 8-bit quantization -> decompression -> replica pool.
func TestServeQuantizedArtifact(t *testing.T) {
	const seed = 5
	art := dropback.CompressSparse(dropback.MNIST100100(seed))
	qa, err := dropback.QuantizeSparse(art, 8)
	if err != nil {
		t.Fatal(err)
	}
	deq := qa.Decompress()

	srv, err := dropback.NewServer(dropback.ServeConfig{
		NewSparseReplica: serve.ModelReplicas(func() (*dropback.Model, error) {
			m := dropback.MNIST100100(seed)
			return m, deq.Apply(m)
		}),
		InputShape: []int{784},
		Replicas:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	input := make([]float32, 784)
	for i := range input {
		input[i] = float32((i*7)%23) / 23
	}
	pred, err := srv.Predict(t.Context(), input)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Class < 0 || pred.Class >= 10 {
		t.Errorf("class %d outside [0, 10)", pred.Class)
	}
}

// ExampleNewServer shows the minimal serving setup from a sparse artifact.
func ExampleNewServer() {
	art := dropback.CompressSparse(dropback.MNIST100100(1))
	srv, err := dropback.NewServer(dropback.ServeConfig{
		NewSparseReplica: serve.ModelReplicas(func() (*dropback.Model, error) {
			m := dropback.MNIST100100(1) // same architecture + seed as training
			return m, art.Apply(m)
		}),
		InputShape: []int{784},
		Replicas:   2,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Println(srv.Replicas(), "replicas serving", srv.InputLen(), "input features")
	// Output: 2 replicas serving 784 input features
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzHTTPRun drives arbitrary /v1/run bodies through the handler of a
// service whose four test kernels are compiled before fuzzing starts, with
// the default batch window and routing. Every body must get a 200, 400,
// 404, 413 or 422 with a JSON body, never a panic or another status, and
// every 200 must carry, vector for vector, the outputs the kernel's own
// RunBatch gives. A body naming an inline source that is not already
// resident is skipped: it would exercise the C front end, not the run path.
func FuzzHTTPRun(f *testing.F) {
	svc := NewService(Config{})
	var mux *Entry
	for _, src := range testKernels() {
		e, err := svc.CompileC(src, testOptions())
		if err != nil {
			f.Fatal(err)
		}
		if src == kMux {
			mux = e
		}
	}
	h := NewHandler(svc)

	key := mux.Key.String()
	vec := `{"s":true,"a":false,"b":true}`
	vecs := func(n int) string { return "[" + strings.TrimSuffix(strings.Repeat(vec+",", n), ",") + "]" }
	for _, seed := range []string{
		`{"key":"` + key + `","batch":` + vecs(1) + `}`,
		`{"key":"` + key + `","batch":` + vecs(20) + `,"backend":"cim"}`,
		`{"key":"` + key + `","batch":` + vecs(3) + `,"backend":"cpu"}`,
		`{"key":"` + key + `","batch":` + vecs(2) + `,"backend":"auto"}`,
		`{"key":"` + key + `","batch":` + vecs(300) + `}`, // past one pass: the direct path
		`{"key":"` + key + `","batch":[]}`,
		`{"key":"` + key + `"}`,
		`{"key":"` + key + `","batch":[{"s":true}]}`,
		`{"key":"` + key + `","batch":[{"x":true,"y":false,"z":true}]}`,
		`{"key":"` + key + `","batch":[null]}`,
		`{"key":"` + key + `","batch":` + vecs(1) + `,"backend":"gpu"}`,
		`{"key":"` + key + `","batch":` + vecs(1) + `,"extra":[1,2],"options":{"unknown":true}}`,
		`{"key":"` + Key{}.String() + `","batch":` + vecs(1) + `}`,
		`{"key":"nothex","batch":` + vecs(1) + `}`,
		`{"source":"` + kMux + `","options":{"tech":"reram","arraySize":128},"batch":` + vecs(4) + `}`,
		`{"source":"` + kMux + `","options":{"tech":"dram"},"batch":` + vecs(1) + `}`,
		`{"batch":` + vecs(1) + `}`,
		`{"key":`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req runRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		if decoded && req.Key == "" && req.Source != "" {
			if opts, err := req.Options.toOptions(); err == nil {
				if _, ok := svc.Lookup(KeySource(req.Source, opts)); !ok {
					t.Skip("inline source is not resident")
				}
			}
		}

		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			var resp errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Error == "" {
				t.Fatalf("status %d without an error body (%v): %q", w.Code, err, w.Body.Bytes())
			}
			return
		default:
			t.Fatalf("status %d for body %q", w.Code, body)
		}

		if !decoded {
			t.Fatalf("200 for a body that does not decode: %q", body)
		}
		var resp runResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding 200 response: %v", err)
		}
		k, err := ParseKey(resp.Key)
		if err != nil {
			t.Fatalf("200 response key: %v", err)
		}
		e, ok := svc.Lookup(k)
		if !ok {
			t.Fatalf("200 response names key %s, which is not resident", resp.Key)
		}
		want, err := e.Compiled.RunBatch(req.Batch, 0)
		if err != nil {
			t.Fatalf("200 for a batch RunBatch rejects: %v", err)
		}
		if len(resp.Outputs) != len(want) {
			t.Fatalf("%d outputs for %d vectors", len(resp.Outputs), len(want))
		}
		for i := range want {
			if len(resp.Outputs[i]) != len(want[i]) {
				t.Fatalf("vector %d: outputs %v, want %v", i, resp.Outputs[i], want[i])
			}
			for name, v := range want[i] {
				if got, ok := resp.Outputs[i][name]; !ok || got != v {
					t.Fatalf("vector %d: outputs %v, want %v", i, resp.Outputs[i], want[i])
				}
			}
		}
	})
}

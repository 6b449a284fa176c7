package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return r.StatusCode
}

// TestHTTPRoundTrip compiles a kernel over the wire, runs it by key and by
// inline source, and checks the outputs against the library's own answer.
func TestHTTPRoundTrip(t *testing.T) {
	svc := NewService(Config{Window: -1, MaxBatchLanes: 1}) // every run flushes itself
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	wopts := wireOptions{Tech: "reram", ArraySize: 128}
	var comp compileResponse
	if code := postJSON(t, srv, "/v1/compile", compileRequest{Source: kMux, Options: wopts}, &comp); code != http.StatusOK {
		t.Fatalf("compile returned %d", code)
	}
	if comp.Cached {
		t.Fatal("first compile reported cached")
	}
	if comp.Instructions == 0 || len(comp.Inputs) != 3 || len(comp.Outputs) != 1 {
		t.Fatalf("compile response looks wrong: %+v", comp)
	}
	var again compileResponse
	postJSON(t, srv, "/v1/compile", compileRequest{Source: kMux, Options: wopts}, &again)
	if !again.Cached || again.Key != comp.Key {
		t.Fatalf("recompile: cached=%v key match=%v", again.Cached, again.Key == comp.Key)
	}

	// Golden answer straight from the library.
	opts, err := wopts.toOptions()
	if err != nil {
		t.Fatal(err)
	}
	e, err := svc.CompileC(kMux, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	batch := randBatch(rng, e.InputNames, 20)
	want, err := e.Compiled.RunBatch(batch, 0)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, req runRequest) {
		t.Helper()
		var run runResponse
		if code := postJSON(t, srv, "/v1/run", req, &run); code != http.StatusOK {
			t.Fatalf("%s: run returned %d", label, code)
		}
		if run.Key != comp.Key {
			t.Fatalf("%s: run key %s, want %s", label, run.Key, comp.Key)
		}
		if len(run.Outputs) != len(want) {
			t.Fatalf("%s: %d outputs, want %d", label, len(run.Outputs), len(want))
		}
		for i := range want {
			for name, v := range want[i] {
				if run.Outputs[i][name] != v {
					t.Fatalf("%s: vector %d output %q = %v, want %v", label, i, name, run.Outputs[i][name], v)
				}
			}
		}
	}
	check("by key", runRequest{Key: comp.Key, Batch: batch})
	check("by source", runRequest{Source: kMux, Options: wopts, Batch: batch})
	check("forced cpu", runRequest{Key: comp.Key, Batch: batch, Backend: "cpu"})
	check("forced cim", runRequest{Key: comp.Key, Batch: batch, Backend: "cim"})

	var st Stats
	r, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Vectors == 0 || st.Registry.Misses != 1 {
		t.Fatalf("stats after traffic: %+v", st)
	}
}

// TestHTTPErrors pins the failure modes: bad JSON, bad options, compile
// errors (including an out-of-range MRA fraction), unknown keys, empty
// batches, unbound inputs.
func TestHTTPErrors(t *testing.T) {
	svc := NewService(Config{Window: -1, MaxBatchLanes: 1})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	post := func(path, body string) int {
		t.Helper()
		r, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if code := post("/v1/compile", "{"); code != http.StatusBadRequest {
		t.Fatalf("truncated JSON: %d", code)
	}
	if code := post("/v1/compile", `{"source":""}`); code != http.StatusBadRequest {
		t.Fatalf("missing source: %d", code)
	}
	if code := post("/v1/compile", `{"source":"void f(word a){}","options":{"tech":"dram"}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown tech: %d", code)
	}
	if code := post("/v1/compile", `{"source":"void broken(word a, word *o){ *o = a & ; }"}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("malformed kernel: %d", code)
	}
	// An out-of-range MRA fraction is a compile error, and stays one: the
	// registry must not be left holding a broken entry for the key.
	for i := 0; i < 2; i++ {
		if code := post("/v1/compile", `{"source":"`+kMux+`","options":{"multiRowActivation":true,"mraFraction":2}}`); code != http.StatusUnprocessableEntity {
			t.Fatalf("mraFraction 2, attempt %d: %d", i, code)
		}
	}
	if code := post("/v1/run", `{"batch":[{"a":true}]}`); code != http.StatusBadRequest {
		t.Fatalf("run without key or source: %d", code)
	}
	missing := Key{}.String()
	if code := post("/v1/run", `{"key":"`+missing+`","batch":[{"a":true}]}`); code != http.StatusNotFound {
		t.Fatalf("unknown key: %d", code)
	}
	if code := post("/v1/run", `{"key":"nothex","batch":[{"a":true}]}`); code != http.StatusBadRequest {
		t.Fatalf("malformed key: %d", code)
	}
	if code := post("/v1/run", `{"source":"`+kMux+`","options":{"tech":"reram","arraySize":128}}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	if code := post("/v1/run", `{"source":"`+kMux+`","options":{"tech":"reram","arraySize":128},"batch":[{"s":true}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("unbound inputs: %d", code)
	}

	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
}

// TestHTTPBodyTooLarge pins the request-body bound: a body past
// maxBodyBytes fails with 413 on both decoding endpoints.
func TestHTTPBodyTooLarge(t *testing.T) {
	svc := NewService(Config{Window: -1, MaxBatchLanes: 1})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	body := `{"source":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/compile", "/v1/run"} {
		r, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var resp errorResponse
		err = json.NewDecoder(r.Body).Decode(&resp)
		r.Body.Close()
		if r.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body returned %d, want 413", path, r.StatusCode)
		}
		if err != nil || resp.Error == "" {
			t.Fatalf("%s: 413 without an error body (%v)", path, err)
		}
	}
}

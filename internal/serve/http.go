package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"sherlock"
)

// The HTTP front door. Endpoints (all JSON):
//
//	POST /v1/compile  {source, options}            → {key, cached, instructions, inputs, outputs}
//	POST /v1/run      {key | source+options, batch[, backend]}
//	                                               → {backend, outputs}
//	GET  /v1/stats                                 → service counters
//	GET  /healthz                                  → "ok"
//
// A run request may carry either the key of an earlier compile (the
// steady-state shape: clients compile once, then stream run calls against
// the content address) or an inline source+options, which compiles through
// the registry first — identical sources dedupe to the same program.

// maxBodyBytes bounds a /v1/compile or /v1/run request body; a larger body
// fails with 413 before it is decoded further.
const maxBodyBytes = 8 << 20

// wireOptions is the JSON form of sherlock.Options.
type wireOptions struct {
	Tech               string  `json:"tech,omitempty"`
	ArraySize          int     `json:"arraySize,omitempty"`
	Arrays             int     `json:"arrays,omitempty"`
	Mapper             string  `json:"mapper,omitempty"`
	MultiRowActivation bool    `json:"multiRowActivation,omitempty"`
	MRAFraction        float64 `json:"mraFraction,omitempty"`
	NANDLowering       bool    `json:"nandLowering,omitempty"`
	RecycleRows        bool    `json:"recycleRows,omitempty"`
	WearLeveling       bool    `json:"wearLeveling,omitempty"`
	VerifyEmitted      bool    `json:"verifyEmitted,omitempty"`
}

func (w wireOptions) toOptions() (sherlock.Options, error) {
	opts := sherlock.Options{
		ArraySize:          w.ArraySize,
		Arrays:             w.Arrays,
		MultiRowActivation: w.MultiRowActivation,
		MRAFraction:        w.MRAFraction,
		NANDLowering:       w.NANDLowering,
		RecycleRows:        w.RecycleRows,
		WearLeveling:       w.WearLeveling,
		VerifyEmitted:      w.VerifyEmitted,
	}
	switch strings.ToLower(w.Tech) {
	case "", "sttmram", "stt-mram", "stt":
		opts.Tech = sherlock.STTMRAM
	case "reram":
		opts.Tech = sherlock.ReRAM
	case "pcm":
		opts.Tech = sherlock.PCM
	default:
		return opts, fmt.Errorf("unknown tech %q (want sttmram, reram or pcm)", w.Tech)
	}
	switch strings.ToLower(w.Mapper) {
	case "", "optimized", "opt":
		opts.Mapper = sherlock.MapperOptimized
	case "naive":
		opts.Mapper = sherlock.MapperNaive
	default:
		return opts, fmt.Errorf("unknown mapper %q (want naive or optimized)", w.Mapper)
	}
	return opts, nil
}

type compileRequest struct {
	Source  string      `json:"source"`
	Options wireOptions `json:"options"`
}

type compileResponse struct {
	Key          string   `json:"key"`
	Cached       bool     `json:"cached"`
	Instructions int      `json:"instructions"`
	Inputs       []string `json:"inputs"`
	Outputs      []string `json:"outputs"`
}

type runRequest struct {
	Key     string            `json:"key,omitempty"`
	Source  string            `json:"source,omitempty"`
	Options wireOptions       `json:"options"`
	Backend string            `json:"backend,omitempty"`
	Batch   []map[string]bool `json:"batch"`
}

type runResponse struct {
	Key     string            `json:"key"`
	Backend string            `json:"backend"`
	Outputs []map[string]bool `json:"outputs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler wires the service's HTTP surface.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", func(w http.ResponseWriter, r *http.Request) {
		var req compileRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Source == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing source"))
			return
		}
		opts, err := req.Options.toOptions()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		_, cached := s.Lookup(KeySource(req.Source, opts))
		e, err := s.CompileC(req.Source, opts)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, compileResponse{
			Key:          e.Key.String(),
			Cached:       cached,
			Instructions: e.Instructions(),
			Inputs:       e.InputNames,
			Outputs:      e.OutputNames,
		})
	})

	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var req runRequest
		if !decodeBody(w, r, &req) {
			return
		}
		force, err := ParseBackend(req.Backend)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		var e *Entry
		switch {
		case req.Key != "":
			key, err := ParseKey(req.Key)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			var ok bool
			if e, ok = s.Lookup(key); !ok {
				writeError(w, http.StatusNotFound,
					fmt.Errorf("unknown key %s (evicted or never compiled here — re-send source)", req.Key))
				return
			}
		case req.Source != "":
			opts, err := req.Options.toOptions()
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			if e, err = s.CompileC(req.Source, opts); err != nil {
				writeError(w, http.StatusUnprocessableEntity, err)
				return
			}
		default:
			writeError(w, http.StatusBadRequest, errors.New("need key or source"))
			return
		}
		if len(req.Batch) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("empty batch"))
			return
		}
		outs, backend, err := s.Run(e, req.Batch, force)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, runResponse{
			Key:     e.Key.String(),
			Backend: backend.String(),
			Outputs: outs,
		})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// decodeBody decodes r's JSON body, at most maxBodyBytes of it, into v. On
// failure it writes the error response (413 for an oversized body, 400
// otherwise) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("decoding request: %w", err))
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/registry"
)

// POST /explore is the anytime exploration endpoint (DESIGN.md §14).
// Unlike /analyze it takes a JSON body, always addresses a registered
// dataset by hash, and answers interactively: budgets (budget_ms,
// max_patterns) bound the mine, sample_rows trades exactness for speed
// with explicit confidence intervals, and an "expand" object navigates
// the lattice from a named pattern without mining at all. "async": true
// submits the exploration as a job through the async submit POST /jobs
// takes — admitted per tenant, logged under its own spec, routed to the
// dataset's owners in a cluster; progress then streams via the usual
// /jobs/{id}/partial and /jobs/{id}/events.

// exploreBody is the wire shape of a POST /explore request.
type exploreBody struct {
	Dataset     string  `json:"dataset"`
	Truth       string  `json:"truth"`
	Pred        string  `json:"pred"`
	Support     float64 `json:"support"`
	Metric      string  `json:"metric"`
	TopK        int     `json:"topk"`
	BudgetMS    int64   `json:"budget_ms"`
	MaxPatterns int64   `json:"max_patterns"`
	SampleRows  int     `json:"sample_rows"`
	SampleSeed  int64   `json:"sample_seed"`
	Confidence  float64 `json:"confidence"`
	Async       bool    `json:"async"`
	// Expand, when present, turns the request into a navigation step:
	// the frequent refinements of Pattern (the root when empty),
	// restricted to one attribute when Attr is set. Budgets and sampling
	// do not apply — navigation is exact and never mines.
	Expand *expandBody `json:"expand"`
}

type expandBody struct {
	Pattern []string `json:"pattern"`
	Attr    string   `json:"attr"`
}

// exploreRequest is the parsed form: exactly one of spec (mine) or
// expand (navigate) is acted on; async only applies to the mine path.
type exploreRequest struct {
	spec   jobs.ExploreSpec
	expand *jobs.ExpandSpec
	async  bool
}

// parseExploreBody decodes and validates a POST /explore body. It is
// deliberately a pure []byte -> request function so the fuzz target can
// drive it directly. Range checks that the engine also performs are
// duplicated here where cheap, so malformed requests die before touching
// any engine state; defaults (metric, topk, confidence) are left to the
// engine so the two entry points cannot drift.
func parseExploreBody(body []byte) (exploreRequest, error) {
	var req exploreRequest
	var b exploreBody
	if err := decodeStrict(body, "explore", &b); err != nil {
		return req, err
	}
	if b.Dataset == "" {
		return req, errors.New("missing dataset hash (register the CSV via POST /datasets first)")
	}
	if b.Support < 0 || b.Support > 1 {
		return req, fmt.Errorf("bad support %v (want [0,1])", b.Support)
	}
	if b.TopK < 0 {
		return req, fmt.Errorf("bad topk %d", b.TopK)
	}
	if b.BudgetMS < 0 || b.MaxPatterns < 0 || b.SampleRows < 0 {
		return req, errors.New("budgets and sample_rows must be non-negative")
	}
	if b.Confidence < 0 || b.Confidence >= 1 {
		return req, fmt.Errorf("bad confidence %v (want [0,1); 0 selects the default)", b.Confidence)
	}
	truth := orDefault(b.Truth, "truth")
	pred := orDefault(b.Pred, "pred")
	support := b.Support
	// lint:ignore floatcmp the zero value is the explicit "use the default" sentinel
	if support == 0 {
		support = 0.05
	}
	if b.Expand != nil {
		if b.Async {
			return req, errors.New("expand is synchronous; drop \"async\"")
		}
		if b.BudgetMS != 0 || b.MaxPatterns != 0 || b.SampleRows != 0 {
			return req, errors.New("expand is exact; budgets and sampling do not apply")
		}
		for _, it := range b.Expand.Pattern {
			if it == "" {
				return req, errors.New("empty item name in expand pattern")
			}
		}
		req.expand = &jobs.ExpandSpec{
			Dataset:  registry.Hash(b.Dataset),
			TruthCol: truth,
			PredCol:  pred,
			Support:  support,
			Metric:   b.Metric,
			Pattern:  b.Expand.Pattern,
			Attr:     b.Expand.Attr,
		}
		return req, nil
	}
	req.spec = jobs.ExploreSpec{
		Dataset:     registry.Hash(b.Dataset),
		TruthCol:    truth,
		PredCol:     pred,
		Support:     support,
		Metric:      b.Metric,
		TopK:        b.TopK,
		BudgetMS:    b.BudgetMS,
		MaxPatterns: b.MaxPatterns,
		SampleRows:  b.SampleRows,
		SampleSeed:  b.SampleSeed,
		Confidence:  b.Confidence,
	}
	req.async = b.Async
	return req, nil
}

// decodeStrict decodes a request body holding exactly one JSON object
// into v, refusing unknown fields; what names the body in errors.
func decodeStrict(body []byte, what string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad %s body: %w", what, err)
	}
	// A trailing second JSON value is a malformed request, not extra data
	// to silently ignore.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("bad %s body: trailing data after the JSON object", what)
	}
	return nil
}

// handleExplore implements POST /explore.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := parseExploreBody(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.async {
		req.spec.Tenant = tenantOf(r)
		s.submitAsync(w, r, req.spec, nil)
		return
	}
	ds := req.spec.Dataset
	if req.expand != nil {
		ds = req.expand.Dataset
	}
	if _, ok := s.reg.Get(ds); !ok {
		writeError(w, http.StatusNotFound, "dataset "+string(ds)+" not registered")
		return
	}

	if req.expand != nil {
		out, err := s.engine.Expand(*req.expand)
		if err != nil {
			s.writeExploreError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	out, err := s.engine.Explore(r.Context(), req.spec)
	if err != nil {
		s.writeExploreError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// writeExploreError maps explore/expand failures to HTTP statuses. The
// dataset existing at the registry pre-check but being evicted before
// the engine pinned it is a 404, not a 400 — the client's request was
// well-formed.
func (s *Server) writeExploreError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, jobs.ErrDatasetGone):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrBadInput):
		writeError(w, http.StatusBadRequest, err.Error())
	case r.Context().Err() != nil:
		writeError(w, 499, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

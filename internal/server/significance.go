package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/registry"
)

// POST /significance is the permutation-grounded significance endpoint
// (DESIGN.md §15). It addresses a registered dataset by hash and runs
// multiple-testing control over every mined pattern: Westfall–Young
// max-T permutation FWER control ("wy", the default), permutation FDR
// ("perm-fdr"), or the analytic Benjamini–Hochberg pass ("bh").
// "async": true submits the query as a job through the async submit
// POST /jobs takes — admitted per tenant, logged under its own spec,
// routed to the dataset's owners in a cluster; permutation progress then
// streams via /jobs/{id} and the final leaderboard via
// /jobs/{id}/partial and /jobs/{id}/result.

// significanceBody is the wire shape of a POST /significance request.
type significanceBody struct {
	Dataset      string  `json:"dataset"`
	Truth        string  `json:"truth"`
	Pred         string  `json:"pred"`
	Support      float64 `json:"support"`
	Metric       string  `json:"metric"`
	Method       string  `json:"method"`
	Alpha        float64 `json:"alpha"`
	Permutations int     `json:"permutations"`
	Seed         int64   `json:"seed"`
	Exhaustive   bool    `json:"exhaustive"`
	TopK         int     `json:"topk"`
	Baseline     bool    `json:"baseline"`
	Async        bool    `json:"async"`
}

// significanceRequest is the parsed form of a POST /significance body.
type significanceRequest struct {
	spec  jobs.SignificanceSpec
	async bool
}

// parseSignificanceBody decodes and validates a POST /significance
// body. It is deliberately a pure []byte -> request function so the
// fuzz target can drive it directly. Range checks the engine also
// performs are duplicated here where cheap; defaults (metric, method,
// alpha, permutations, topk) are left to the engine so the two entry
// points cannot drift.
func parseSignificanceBody(body []byte) (significanceRequest, error) {
	var req significanceRequest
	var b significanceBody
	if err := decodeStrict(body, "significance", &b); err != nil {
		return req, err
	}
	if b.Dataset == "" {
		return req, errors.New("missing dataset hash (register the CSV via POST /datasets first)")
	}
	if b.Support < 0 || b.Support > 1 {
		return req, fmt.Errorf("bad support %v (want [0,1])", b.Support)
	}
	if b.Alpha < 0 || b.Alpha >= 1 {
		return req, fmt.Errorf("bad alpha %v (want (0,1); 0 selects the default)", b.Alpha)
	}
	if b.Permutations < 0 {
		return req, fmt.Errorf("bad permutations %d", b.Permutations)
	}
	if b.TopK < 0 {
		return req, fmt.Errorf("bad topk %d", b.TopK)
	}
	switch b.Method {
	case "", jobs.MethodWY, jobs.MethodPermFDR:
		if b.Exhaustive && b.Permutations != 0 {
			return req, errors.New("exhaustive enumerates all orderings; drop \"permutations\"")
		}
	case jobs.MethodBH:
		if b.Permutations != 0 || b.Exhaustive || b.Seed != 0 {
			return req, errors.New("method \"bh\" is analytic; permutation knobs do not apply")
		}
	default:
		return req, fmt.Errorf("bad method %q (want %q, %q or %q)",
			b.Method, jobs.MethodWY, jobs.MethodPermFDR, jobs.MethodBH)
	}
	support := b.Support
	// lint:ignore floatcmp the zero value is the explicit "use the default" sentinel
	if support == 0 {
		support = 0.05
	}
	req.spec = jobs.SignificanceSpec{
		Dataset:      registry.Hash(b.Dataset),
		TruthCol:     orDefault(b.Truth, "truth"),
		PredCol:      orDefault(b.Pred, "pred"),
		Support:      support,
		Metric:       b.Metric,
		Method:       b.Method,
		Alpha:        b.Alpha,
		Permutations: b.Permutations,
		Seed:         b.Seed,
		Exhaustive:   b.Exhaustive,
		TopK:         b.TopK,
		Baseline:     b.Baseline,
	}
	req.async = b.Async
	return req, nil
}

// handleSignificance implements POST /significance.
func (s *Server) handleSignificance(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := parseSignificanceBody(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.async {
		req.spec.Tenant = tenantOf(r)
		s.submitAsync(w, r, req.spec, nil)
		return
	}
	if _, ok := s.reg.Get(req.spec.Dataset); !ok {
		writeError(w, http.StatusNotFound, "dataset "+string(req.spec.Dataset)+" not registered")
		return
	}
	out, err := s.engine.Significance(r.Context(), req.spec)
	if err != nil {
		s.writeExploreError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

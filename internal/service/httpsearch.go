package service

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/scenario"
)

// acceptSearch parses a spec with a search block and starts the engine.
// The search always runs on the peer that accepted it; only its
// evaluations fan across the ring.
func (s *Service) acceptSearch(w http.ResponseWriter, r *http.Request) (*SearchJob, bool) {
	reps, priority, deadline, ok := s.submitParams(w, r)
	if !ok {
		return nil, false
	}
	if !deadline.IsZero() {
		// A search is many jobs over many rounds; a single absolute
		// deadline on all of them would make the trajectory depend on
		// wall-clock. The spec's maxSeconds valve is the supported cut.
		httpError(w, http.StatusBadRequest, "deadline: not supported on searches; set maxSeconds in the search block instead")
		return nil, false
	}
	body, ok := readBody(w, r, maxSpecBytes, "spec")
	if !ok {
		return nil, false
	}
	spec, err := scenario.Parse(bytes.NewReader(body))
	if err == nil && spec.Search == nil {
		err = errors.New("spec has no search block; submit plain specs to /v1/jobs or /v1/groups")
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	// Admission after the parse, like groups: the load a search carries is
	// its round width, which only the compiled spec knows.
	if !s.admit(w, priority, searchAdmissionWidth(spec)) {
		return nil, false
	}
	sj, err := s.SubmitSearch(spec, reps, priority)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return sj, true
}

// searchAdmissionWidth estimates what one round of the submitted search
// charges against the latency SLO: the declared round width, before
// compilation fills in strategy defaults (a zero points falls back to the
// largest default so under-declared searches are not under-charged).
func searchAdmissionWidth(spec *scenario.Spec) int {
	n := spec.Search.Points
	if len(spec.Search.Values) > 0 && n < len(spec.Search.Values) {
		n = len(spec.Search.Values)
	}
	if n <= 0 {
		n = 8
	}
	return n
}

// handleSearchResult serves the completed search: the deterministic
// result document (incumbent, canonical incumbent spec, metric trajectory
// and the full per-round table) by default, or — with ?csv=trajectory —
// the round-by-round incumbent CSV. Both are free of job IDs, cache flags
// and timestamps, so an identical resubmitted search serves byte-identical
// bytes.
func (s *Service) handleSearchResult(w http.ResponseWriter, r *http.Request, sj *SearchJob) {
	res, ok := sj.Result()
	if !ok {
		httpError(w, http.StatusConflict, "search %s is %s; the result exists only once it is done", sj.ID, sj.Status().State)
		return
	}
	if kind := r.URL.Query().Get("csv"); kind != "" {
		if kind != "trajectory" {
			httpError(w, http.StatusNotFound, "search %s has no %s CSV (have trajectory)", sj.ID, kind)
			return
		}
		b := res.TrajectoryCSV()
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		w.Write(b)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

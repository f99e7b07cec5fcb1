package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/telemetry"
)

// This file serves the explainability layer: the release ledger
// (/v1/events), per-group diagnostics (/v1/groups, /v1/groups/{id}), and
// the routing dry-run (/v1/explain). All three are derived from releases,
// like every other read of condensed state, so they only ever describe
// groups of at least k records, and none touches the engine.

// eventsResponse is the GET /v1/events body: the journal tail oldest
// first, plus the ring geometry so clients know the retention horizon.
type eventsResponse struct {
	Capacity int                      `json:"capacity"`
	Recorded uint64                   `json:"recorded"`
	Dropped  uint64                   `json:"dropped"`
	Events   []telemetry.JournalEvent `json:"events"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.jr == nil {
		writeError(w, http.StatusNotFound,
			errors.New("release ledger not enabled (start with -journal > 0)"))
		return
	}
	q := queryParams(r)
	last, err := parseLast(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var types []string
	if v := q.Get("type"); v != "" {
		types = strings.Split(v, ",")
		for _, t := range types {
			if !validEventType(t) {
				writeError(w, http.StatusBadRequest, fmt.Errorf("unknown event type %q", t))
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, s.events(last, types...))
}

// events builds the events body over up to last journal events (0 for
// all) of the given types, for GET /v1/events and the diagnostics bundle,
// after installing the release of the engine's current state.
func (s *Server) events(last int, types ...string) eventsResponse {
	s.release()
	events := s.jr.Events(last, types...)
	if events == nil {
		events = []telemetry.JournalEvent{}
	}
	return eventsResponse{
		Capacity: s.jr.Capacity(),
		Recorded: s.jr.Seq(),
		Dropped:  s.jr.Dropped(),
		Events:   events,
	}
}

// validEventType guards the ?type= filter against typos: a filter naming
// no known event kind would silently return nothing, the same trap the
// history selector validation closes.
func validEventType(t string) bool {
	switch t {
	case telemetry.EventGroupReleased, telemetry.EventGroupRetired,
		telemetry.EventReleaseReplaced, telemetry.EventWatchdogTransition:
		return true
	}
	return false
}

// groupsResponse is the GET /v1/groups body.
type groupsResponse struct {
	Generation uint64           `json:"generation"`
	Groups     []core.GroupInfo `json:"groups"`
}

func (s *Server) handleGroups(w http.ResponseWriter, r *http.Request) {
	rel := s.release()
	writeJSON(w, http.StatusOK, groupsResponse{Generation: rel.Generation(), Groups: rel.GroupInfos(nil)})
}

func (s *Server) handleGroupByID(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/v1/groups/")
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad group id %q", raw))
		return
	}
	det, ok := s.release().GroupByID(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no live group with id %d of at least k records (below k, retired by a split, or never allocated)", id))
		return
	}
	writeJSON(w, http.StatusOK, det)
}

// explainRequest is the POST /v1/explain body.
type explainRequest struct {
	// Record is the stream record to dry-run routing for; it is never
	// ingested.
	Record []float64 `json:"record"`
	// Top bounds the reported candidate list (0 means the default; above
	// core.ExplainMaxTop is refused).
	Top int `json:"top"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	// The body bound /v1/records derives for a one-record batch.
	body, status, err := readBody(w, r, recordsBodyLimit(1, s.dim))
	if err != nil {
		writeError(w, status, err)
		return
	}
	var req explainRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if req.Record == nil {
		writeError(w, http.StatusBadRequest, errors.New("no record in request"))
		return
	}
	ex, err := s.release().Explain(mat.Vector(req.Record), req.Top)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

package service

import (
	"errors"
	"fmt"
	"net/http"

	"raccd/internal/obs"
	"raccd/internal/service/fabric"
	"raccd/internal/service/queue"
)

// handleSubmitBatch accepts POST /v1/batch: an explicit run list
// executed as one job. Every run is validated up front — the batch is
// rejected whole on the first invalid run, so a 202 means every run will
// execute. The runs scatter across the fabric (the one Local backend on
// a plain daemon, the worker fleet on a coordinator), progress streams
// one line per completed run in deterministic batch order, and the
// result is one merged CSV with rows sorted exactly as `sweep -csv`
// sorts them. Duplicate runs in one batch cost one simulation (they
// dedupe through the result store) and collapse into one CSV row — the
// merged set is keyed by (workload, system, ratio, ADR).
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, s.opts.MaxSweepRuns, &req) {
		return
	}
	if len(req.Runs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("batch contains zero runs"))
		return
	}
	if len(req.Runs) > s.opts.MaxSweepRuns {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d runs, above the server's limit of %d", len(req.Runs), s.opts.MaxSweepRuns))
		return
	}
	specs := make([]fabric.Spec, len(req.Runs))
	for i, run := range req.Runs {
		spec, err := fabric.NewSpec(run)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("run %d: %w", i, err))
			return
		}
		specs[i] = spec
	}
	j := queue.NewJob(s.q.NewID(), "batch", obs.Trace(r.Context()), len(specs))
	s.enqueueAndRespond(w, j, s.runSpecs(specs))
}

// runSpecs is the body of batch and sweep jobs: the coordinator
// scatters the specs across its backends and the merged set renders as
// one CSV.
func (s *Server) runSpecs(specs []fabric.Spec) func(*queue.Job) (string, error) {
	return func(j *queue.Job) (string, error) {
		set, err := s.coord.Execute(s.jobCtx(j), specs, j.Progress)
		if err != nil {
			return "", err
		}
		return set.CSV(), nil
	}
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"viewjoin"
)

// This file is the request edge that POST /query, /debug/trace and
// /update share. A request is accepted (the method check, the request
// count), decoded into its endpoint's request, admitted to a worker slot,
// and run through its endpoint's stages (query.go, update.go), each stage
// handing the next its typed result or stopping with a *failure. Whatever
// stage it stopped at, one finish ends it: the outcome counted, the access
// line written, a copy of it kept by the slowlog for a request that
// reached its run, the body sent. The line's clocks are read at the stage
// boundaries, one time.Now each: wait_us when a worker slot is taken,
// plan_us when the plan stage returns, duration_us in finish.

// exchange is one request on its way through the edge: the access record
// its stages fill in as they learn it, and what finish needs besides.
type exchange struct {
	started time.Time
	line    accessLine
	ran     bool            // the run stage started: the slowlog keeps a copy of line
	query   queryResponse   // the body of a successful /query or /debug/trace
	update  *updateResponse // the body of a successful /update
}

// serve is the one edge of the POST endpoints. Another method is a 405
// naming the allowed one, neither counted nor logged.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("POST required"), false)
		return
	}
	s.requests.Add(1)
	x := exchange{started: time.Now()}
	var qreq *queryRequest
	var ureq *updateRequest
	var f *failure
	if r.URL.Path == "/update" {
		ureq = new(updateRequest)
		f = x.decodeUpdate(r, ureq)
	} else {
		qreq = new(queryRequest)
		f = x.decodeQuery(r, qreq)
	}
	if f == nil {
		var release func()
		if release, f = s.admit(); f == nil {
			// Held until the body is sent.
			defer release()
			x.line.WaitUS = time.Since(x.started).Microseconds()
			if ureq != nil {
				f = s.update(ureq, &x)
			} else {
				f = s.query(r.Context(), qreq, r.URL.Path == "/debug/trace", &x)
			}
		}
	}
	s.finish(w, &x, f)
}

// failure is how a request ended short of a result: the HTTP status, the
// stage that failed, and the access-log outcome.
type failure struct {
	status  int
	stage   string
	outcome string
	timeout bool
	err     error
}

// failed is a failure with the plain "error" outcome.
func failed(status int, stage string, err error) *failure {
	return &failure{status: status, stage: stage, outcome: "error", err: err}
}

// statusClientClosedRequest is the nginx-convention status for a request
// aborted by its client; Go's net/http has no name for it.
const statusClientClosedRequest = 499

// planFailure maps an error of the plan — from Prepare (stage "prepare")
// or from a run (stage "evaluate") — to its HTTP shape: a fault under a
// view file's mapping is 500 at stage "load"; a *CanceledError from a
// deadline is 504 with partial=false and timeout=true, one from a client
// disconnect is 499 with outcome "canceled"; anything else is a 422 at the
// given stage.
func planFailure(stage string, err error) *failure {
	f := failed(http.StatusUnprocessableEntity, stage, err)
	var vf *viewjoin.ViewFaultError
	var ce *viewjoin.CanceledError
	switch {
	case errors.As(err, &vf):
		f.status, f.stage = http.StatusInternalServerError, "load"
	case errors.As(err, &ce) && errors.Is(err, context.Canceled):
		f.status, f.outcome = statusClientClosedRequest, "canceled"
	case errors.As(err, &ce):
		f.status, f.outcome, f.timeout = http.StatusGatewayTimeout, "timeout", true
	}
	return f
}

// admit is the admission stage: refuse while draining, shed when the
// worker queue is full, otherwise block for a worker slot and return the
// func that gives it back.
func (s *Server) admit() (release func(), f *failure) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &failure{status: http.StatusServiceUnavailable, stage: "admission", outcome: "drain",
			err: errors.New("server is draining")}
	}
	s.wg.Add(1)
	s.mu.Unlock()

	select {
	case s.sem <- struct{}{}:
	default:
		// A waiter is counted whatever the queue's bound; a negative
		// QueueDepth sheds none.
		if q := s.queued.Add(1); s.cfg.QueueDepth >= 0 && q > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			s.wg.Done()
			return nil, &failure{status: http.StatusTooManyRequests, stage: "admission", outcome: "shed",
				err: fmt.Errorf("queue full (%d workers busy, %d queued)", s.cfg.Workers, s.cfg.QueueDepth)}
		}
		s.sem <- struct{}{}
		s.queued.Add(-1)
	}
	s.inFlight.Add(1)
	return func() {
		s.inFlight.Add(-1)
		<-s.sem
		s.wg.Done()
	}, nil
}

// finish ends a request, f nil for a success: the outcome counted, the
// access line completed and written, a copy of it kept by the slowlog when
// the request reached its run — its plan identity and stage clocks are
// what a slow-query post-mortem needs, and a trace of it is one re-post to
// /debug/trace away — and the body sent.
func (s *Server) finish(w http.ResponseWriter, x *exchange, f *failure) {
	l := &x.line
	l.Status, l.Outcome = http.StatusOK, "ok"
	if f != nil {
		l.Status, l.Stage, l.Outcome = f.status, f.stage, f.outcome
		switch f.outcome {
		case "timeout":
			s.timeouts.Add(1)
		case "canceled":
			s.canceled.Add(1)
		case "shed":
			s.shed.Add(1)
		case "drain":
		default:
			s.failures.Add(1)
		}
	}
	now := time.Now()
	l.DurationUS = now.Sub(x.started).Microseconds()
	if s.cfg.AccessLog != nil || x.ran {
		if f != nil {
			l.Error = f.err.Error()
		}
		l.Schema, l.Time = AccessSchema, now.UTC()
	}
	if s.cfg.AccessLog != nil {
		if buf, err := json.Marshal(*l); err == nil {
			s.logMu.Lock()
			s.cfg.AccessLog.Write(append(buf, '\n'))
			s.logMu.Unlock()
		}
	}
	if x.ran {
		s.slowlog.observe(*l)
	}
	switch {
	case f != nil:
		writeError(w, f.status, f.stage, f.err, f.timeout)
	case x.update != nil:
		x.update.DurationUS = l.DurationUS
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(x.update)
	default:
		x.query.write(w)
	}
}

// errorResponse is the body of every failed request: the stage that
// failed, the error text, and — for timeouts — an explicit statement that
// no partial results were produced (aborted evaluations return nothing).
type errorResponse struct {
	Stage   string `json:"stage"`
	Error   string `json:"error"`
	Partial bool   `json:"partial"`
	Timeout bool   `json:"timeout,omitempty"`
}

func writeError(w http.ResponseWriter, status int, stage string, err error, timeout bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Stage: stage, Error: err.Error(), Timeout: timeout})
}

// accessLine is one viewjoin/access/v1 log record. Once the plan stage has
// an entry, Query, Engine and Views name the plan as the response and
// /debug/plans do (canonical query, resolved engine, sorted views); a
// request that fails before that is named as its body spelled it. Outcome
// classifies how the request ended (ok, timeout, canceled, shed, drain,
// stale, error) and Partitions records how many range partitions the run
// executed, so a log scan can separate deadline expiries from client
// disconnects and see which requests actually went parallel. Time, when
// the line was written, is encoded as an RFC 3339 UTC string.
type accessLine struct {
	Schema     string    `json:"schema"`
	Time       time.Time `json:"time"`
	Document   string    `json:"document"`
	Query      string    `json:"query"`
	Engine     string    `json:"engine"`
	Views      []string  `json:"views,omitempty"`
	Status     int       `json:"status"`
	Stage      string    `json:"stage,omitempty"`
	Cache      string    `json:"cache,omitempty"`
	Outcome    string    `json:"outcome"`
	Matches    int       `json:"matches"`
	Partitions int       `json:"partitions,omitempty"`
	DurationUS int64     `json:"duration_us"`
	// Where duration_us went, on every line and 0 for a stage not
	// reached: arrival to a worker slot (decode and the admission wait),
	// then resolve and plan (Prepare on a cache miss), then the run's own
	// clocks from its Stats, engine time and time-to-first-match.
	WaitUS       int64  `json:"wait_us"`
	PlanUS       int64  `json:"plan_us"`
	RunUS        int64  `json:"run_us"`
	FirstMatchUS int64  `json:"first_match_us"`
	Error        string `json:"error,omitempty"`
	// /update lines only: the operation, the transaction's two layers, and
	// the piece counts of the snapshot it published and of its views'
	// largest list (the successor of a full table pays the write-out, in
	// apply_us or maintain_us, and starts again at a few pieces).
	Op                string `json:"op,omitempty"`
	ApplyUS           int64  `json:"apply_us,omitempty"`
	MaintainUS        int64  `json:"maintain_us,omitempty"`
	RecomputedEntries int    `json:"recomputed_entries,omitempty"`
	DocPieces         int    `json:"doc_pieces,omitempty"`
	ViewPieces        int    `json:"view_pieces,omitempty"`
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"policyoracle/internal/batch"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/store"
)

// MaxBatchItems is the per-request item cap of POST /v1/batch. Requests
// over the cap fail whole with 413 batch_too_large before any item runs.
const MaxBatchItems = batch.DefaultMaxItems

// DefaultBatchWorkers is the per-request execution concurrency of
// /v1/batch when Options.BatchWorkers is unset.
const DefaultBatchWorkers = 4

// handleBlob serves one fingerprint's policy blob from this replica
// only: cache, disk, or extraction from a locally held bundle — never a
// peer fetch. It is the supplier side of the peer tier; the local-only
// read is what makes peer fetching loop-free even when two replicas'
// ring views disagree.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	blob, err := s.st.PoliciesContext(store.LocalOnly(r.Context()), r.PathValue("fp"))
	if err != nil {
		s.failStore(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

// handleBatch executes a mixed array of extract/diff items under a
// bounded worker pool, streaming one NDJSON batch.ItemResult line per
// item in input order, flushed as each becomes available. Item failures
// travel in per-item envelopes with the same stable codes as the
// single-item endpoints; the stream itself stays 200.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batch.Request
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Items) > MaxBatchItems {
		s.fail(w, http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			fmt.Errorf("%d items exceed the per-request cap of %d", len(req.Items), MaxBatchItems))
		return
	}
	s.bm.Requests.Inc()

	// Workers execute out of order; the writer drains slots in input
	// order so the stream is deterministic. Each slot is buffered so a
	// worker never blocks on the writer.
	slots := make([]chan batch.ItemResult, len(req.Items))
	for i := range slots {
		slots[i] = make(chan batch.ItemResult, 1)
	}
	jobs := make(chan int)
	workers := s.batchWorkers
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	ctx := r.Context()
	for range workers {
		go func() {
			for i := range jobs {
				slots[i] <- s.runBatchItem(ctx, i, req.Items[i])
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range req.Items {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := range slots {
		select {
		case res := <-slots[i]:
			if err := enc.Encode(res); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			// Client gone or server draining: the stream is already
			// committed, so just stop emitting.
			return
		}
	}
}

// runBatchItem executes one batch item, reproducing the corresponding
// single-item handler's bytes and error mapping exactly.
func (s *Server) runBatchItem(ctx context.Context, index int, it batch.Item) batch.ItemResult {
	start := time.Now()
	res := s.execBatchItem(ctx, index, it)
	op := it.Op
	if op != batch.OpExtract && op != batch.OpDiff {
		op = "invalid"
	}
	outcome := "ok"
	if res.Error != nil {
		outcome = "error"
	}
	s.bm.Items.With(op, outcome).Inc()
	s.bm.ItemDuration.With(op).ObserveDuration(time.Since(start))
	return res
}

func (s *Server) execBatchItem(ctx context.Context, index int, it batch.Item) batch.ItemResult {
	if err := it.Validate(); err != nil {
		return batchError(index, it, http.StatusBadRequest, CodeBadRequest, err)
	}
	var want *domainAssertion
	if it.Domain != "" {
		d, err := s.resolveDomain(it.Domain)
		if err != nil {
			return batchError(index, it, http.StatusBadRequest, CodeUnknownDomain, err)
		}
		want = &domainAssertion{d.ID()}
	}
	switch it.Op {
	case batch.OpExtract:
		blob, err := s.st.PoliciesContext(ctx, it.Fingerprint)
		if err != nil {
			status, code := storeErrorCode(err)
			return batchError(index, it, status, code, err)
		}
		if want != nil {
			var hdr struct {
				Domain string `json:"domain"`
			}
			if json.Unmarshal(blob, &hdr) == nil && secmodel.DomainLabel(hdr.Domain) != want.id {
				return batchError(index, it, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("policies of %s are in domain %q, not the asserted %q",
						it.Fingerprint, secmodel.DomainLabel(hdr.Domain), want.id))
			}
		}
		return batch.ItemResult{Index: index, Op: it.Op, Status: http.StatusOK, Result: blob}
	case batch.OpDiff:
		rep, err := s.st.DiffContext(ctx, it.A, it.B)
		if err != nil {
			status, code := storeErrorCode(err)
			return batchError(index, it, status, code, err)
		}
		if want != nil && secmodel.DomainLabel(rep.Domain) != want.id {
			return batchError(index, it, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("compared policies are in domain %q, not the asserted %q",
					secmodel.DomainLabel(rep.Domain), want.id))
		}
		wire, err := rep.EncodeJSON()
		if err != nil {
			return batchError(index, it, http.StatusInternalServerError, CodeExtractFailed, err)
		}
		return batch.ItemResult{Index: index, Op: it.Op, Status: http.StatusOK, Result: wire}
	}
	// Unreachable: Validate rejected unknown ops.
	return batchError(index, it, http.StatusBadRequest, CodeBadRequest, errors.New("unknown op"))
}

// domainAssertion carries a resolved domain ID for per-item checks.
type domainAssertion struct{ id string }

func batchError(index int, it batch.Item, status int, code string, err error) batch.ItemResult {
	return batch.ItemResult{
		Index:  index,
		Op:     it.Op,
		Status: status,
		Error:  &batch.ItemError{Code: code, Message: codeMessages[code], Detail: err.Error()},
	}
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	neogeo "repro"
)

// subscribeResponse acknowledges a registered standing query and tells
// the caller where its event stream lives.
type subscribeResponse struct {
	ID     string `json:"id"`
	Stream string `json:"stream"`
	Status string `json:"status"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var sub neogeo.Subscription // the POST /v1/subscribe body
	if !s.decodeJSON(w, r, &sub) {
		return
	}
	id, err := s.sys.Subscribe(r.Context(), sub)
	if err != nil {
		switch {
		case errors.Is(err, neogeo.ErrInvalidSubscription):
			s.writeError(w, http.StatusUnprocessableEntity, "invalid_subscription", err.Error(), nil)
		case errors.Is(err, neogeo.ErrSubscriptionClosed):
			s.writeError(w, http.StatusServiceUnavailable, "subscriptions_closed", "the system is shutting down", nil)
		default:
			s.internalError(w, r, "subscribe", err)
		}
		return
	}
	s.writeJSON(w, http.StatusCreated, subscribeResponse{
		ID:     id,
		Stream: "/v1/subscribe/" + id + "/stream",
		Status: "registered",
	})
}

// unsubscribeResponse acknowledges a cancelled standing query.
type unsubscribeResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request, id string) {
	if err := s.sys.Unsubscribe(r.Context(), id); err != nil {
		if errors.Is(err, neogeo.ErrUnknownSubscription) {
			s.writeError(w, http.StatusNotFound, "unknown_subscription",
				fmt.Sprintf("no subscription %q exists", id), nil)
			return
		}
		s.internalError(w, r, "unsubscribe", err)
		return
	}
	s.writeJSON(w, http.StatusOK, unsubscribeResponse{ID: id, Status: "cancelled"})
}

// handleStream serves GET /v1/subscribe/{id}/stream as Server-Sent
// Events: each matching write is one "record" event with a JSON payload,
// and comment-line heartbeats keep intermediaries from timing the
// connection out while the subscription is quiet. The stream runs until
// the client disconnects, the subscription is cancelled, or the system
// shuts down; each subscription feeds one stream at a time.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, id string) {
	flusher, ok := sseFlusher(w)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "streaming_unsupported",
			"the connection does not support streaming responses", nil)
		return
	}
	stream, err := s.sys.OpenSubscription(r.Context(), id)
	if err != nil {
		switch {
		case errors.Is(err, neogeo.ErrUnknownSubscription):
			s.writeError(w, http.StatusNotFound, "unknown_subscription",
				fmt.Sprintf("no subscription %q exists", id), nil)
		case errors.Is(err, neogeo.ErrStreamBusy):
			s.writeError(w, http.StatusConflict, "stream_busy",
				"another consumer already holds this subscription's stream", nil)
		default:
			s.internalError(w, r, "subscribe_stream", err)
		}
		return
	}
	defer stream.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		// A bounded wait per event interleaves heartbeats with data: the
		// facade's Next returns the context error on expiry, which is the
		// cue to emit a comment line and wait again.
		ctx, cancel := context.WithTimeout(r.Context(), s.heartbeat)
		ev, err := stream.Next(ctx)
		cancel()
		switch {
		case err == nil:
			if !s.writeEvent(w, flusher, ev) {
				return
			}
		case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
			if _, werr := fmt.Fprint(w, ": heartbeat\n\n"); werr != nil {
				return
			}
			flusher.Flush()
		default:
			// Client gone or subscription cancelled/shut down; either way
			// the stream is over.
			return
		}
	}
}

// writeEvent emits one SSE frame; false means the client hung up.
func (s *Server) writeEvent(w http.ResponseWriter, flusher http.Flusher, ev neogeo.SubscriptionEvent) bool {
	ev.At = ev.At.UTC() // the wire carries UTC whatever zone the clock is in
	data, err := json.Marshal(ev)
	if err != nil {
		s.log.Warn("server: marshalling subscription event", "err", err)
		return true
	}
	if _, err := fmt.Fprintf(w, "event: record\nid: %d\ndata: %s\n\n", ev.Seq, data); err != nil {
		return false
	}
	flusher.Flush()
	return true
}

// sseFlusher finds the connection's Flusher through any middleware
// wrapper that exposes Unwrap (the metrics statusWriter does), the same
// chain http.ResponseController walks.
func sseFlusher(w http.ResponseWriter) (http.Flusher, bool) {
	for {
		if f, ok := w.(http.Flusher); ok {
			return f, true
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return nil, false
		}
		w = u.Unwrap()
	}
}

// subscribePath parses the subscription sub-resource paths:
// /v1/subscribe/{id} and /v1/subscribe/{id}/stream.
func subscribePath(path string) (id string, stream, ok bool) {
	rest, found := strings.CutPrefix(path, "/v1/subscribe/")
	if !found || rest == "" {
		return "", false, false
	}
	if tail, isStream := strings.CutSuffix(rest, "/stream"); isStream {
		rest, stream = tail, true
	}
	if rest == "" || strings.Contains(rest, "/") {
		return "", false, false
	}
	return rest, stream, true
}

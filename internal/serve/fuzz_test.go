package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// FuzzSubmit drives POST /api/v1/jobs with arbitrary bodies and
// traceparent headers. Every answer must be 202, 400, 413 or 429 —
// never a 5xx, and never a panic (the handler is called directly, so a
// panic fails the fuzz instead of being swallowed by net/http).
// Accepted jobs are canceled at once, so the seed corpus stays fast;
// an open-ended -fuzz session may still start a large job before its
// cancel lands.
func FuzzSubmit(f *testing.F) {
	specs := []serve.Spec{
		{Kind: serve.KindFlow, Circuit: "s27"},
		{Kind: serve.KindScreen, Circuit: "s1423", Scale: 0.05},
		{Kind: serve.KindFaultSim, Circuit: "s27", Cycles: 300},
		{Kind: serve.KindFaultSim, Circuit: "s3384", Scale: 0.05, Cycles: 100, Units: 3},
		{Kind: serve.KindATPG, Circuit: "s27", Priority: 2},
		{Kind: serve.KindDiagnose, Circuit: "s27"},
		{},
		{Kind: "nope", Circuit: "s27"},
		{Kind: serve.KindFlow},
		{Kind: serve.KindFlow, Circuit: "not-a-profile"},
		{Kind: serve.KindFlow, Circuit: "s27", Eval: "warp-drive"},
		{Kind: serve.KindFlow, Circuit: "s27", TraceParent: "not-a-traceparent"},
	}
	for _, sp := range specs {
		body, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "")
		f.Add(body, inboundTP)
	}
	f.Add([]byte(`{"kind":"faultsim","circuit":"s27","sequence":"`+strings.Repeat("0", serve.MaxSpecBytes)+`"}`), "")
	f.Add([]byte(`{"kind":"flow","circuit":"s27"}`), "00-zz-00f067aa0ba902b7-01")
	f.Add([]byte(`{"kind":"flow","circuit":"s27","bogus":1}`), "")
	f.Add([]byte(`{"kind":"flow"`), "")
	f.Add([]byte(`null`), "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")

	s := serve.New(serve.Config{Runners: 1, QueueLimit: 4})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, traceparent string) {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body))
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted:
			var v serve.View
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("202 with an undecodable view: %v\n%s", err, rec.Body)
			}
			s.Cancel(v.ID)
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %.200q, traceparent %q: %s", rec.Code, body, traceparent, rec.Body)
		}
	})
}

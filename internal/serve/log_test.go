package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestLogRequests: the request log writes exactly one JSON line per
// request, carrying the method, path and status the handler answered and
// the request id the response echoes (minted by the logger when the client
// sent none).
func TestLogRequests(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	var buf bytes.Buffer
	h := LogRequests(svc.Handler(), slog.New(slog.NewJSONHandler(&buf, nil)))
	x, _ := b[0].Test.Batch(0, 1)
	body := tinyBody(t, sample(x, 0))

	do := func(path string) (*httptest.ResponseRecorder, map[string]any) {
		t.Helper()
		buf.Reset()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != 1 {
			t.Fatalf("%s logged %d lines, want 1: %q", path, len(lines), buf.String())
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
			t.Fatalf("log line %q: %v", lines[0], err)
		}
		return rec, entry
	}

	rec, entry := do("/v1/models/m0/infer")
	if rec.Code != http.StatusOK {
		t.Fatalf("infer → %d: %s", rec.Code, rec.Body)
	}
	if entry["status"] != float64(http.StatusOK) || entry["method"] != http.MethodPost ||
		entry["path"] != "/v1/models/m0/infer" {
		t.Fatalf("infer log line: %v", entry)
	}
	if id := rec.Header().Get(RequestIDHeader); id == "" || entry["id"] != id {
		t.Fatalf("log id %v, response %s %q", entry["id"], RequestIDHeader, id)
	}

	rec, entry = do("/v1/models/nope/infer")
	if rec.Code != http.StatusNotFound || entry["status"] != float64(http.StatusNotFound) {
		t.Fatalf("unknown model → %d, logged status %v; want 404 both", rec.Code, entry["status"])
	}
}

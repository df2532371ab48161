package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// tinyBody builds a valid single-input body for the tiny spec's (3,8,8).
func tinyBody(t testing.TB, x *tensor.Tensor) string {
	t.Helper()
	b, err := json.Marshal(InferRequest{Input: x.Data})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHTTPV1Routes is the table-driven status contract of the v1 surface:
// unknown model → 404, malformed tensor/body → 400, a body over the cap →
// 413 on every route that decodes one, wrong method → 405.
func TestHTTPV1Routes(t *testing.T) {
	// The add route answers 501 before it reads a body unless a provider
	// is installed; an oversized body must never reach it.
	provider := func(name, source string) (*qinfer.Engine, *core.Protector, []ModelOption, error) {
		return nil, nil, nil, fmt.Errorf("provider reached with a %d-byte source", len(source))
	}
	svc, b, _ := openTiny(t, 2, []ModelOption{WithScrub(0)}, WithModelProvider(provider))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	x, _ := b[0].Test.Batch(0, 1)
	good := tinyBody(t, sample(x, 0))
	// Ten bytes over the cap: the decoder must be cut off, not left to
	// buffer an array of any length.
	huge := `{"input":[` + strings.Repeat("0,", MaxBodyBytes/2)
	hugeString := `{"source":"` + strings.Repeat("a", MaxBodyBytes)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"sync infer ok", "POST", "/v1/models/m0/infer", good, 200},
		{"second model ok", "POST", "/v1/models/m1/infer", good, 200},
		{"bad model name", "POST", "/v1/models/nope/infer", good, 404},
		{"bad model job", "POST", "/v1/models/nope/jobs", good, 404},
		{"malformed JSON", "POST", "/v1/models/m0/infer", `{"input":[`, 400},
		{"malformed tensor", "POST", "/v1/models/m0/infer", `{"input":[1,2,3]}`, 400},
		{"no inputs", "POST", "/v1/models/m0/infer", `{}`, 400},
		{"bad shape", "POST", "/v1/models/m0/infer", `{"input":[1,2],"shape":[2]}`, 400},
		{"multi-input job", "POST", "/v1/models/m0/jobs", fmt.Sprintf(`{"inputs":[%s,%s]}`, "[0.1]", "[0.2]"), 400},
		{"oversized infer body", "POST", "/v1/models/m0/infer", huge, 413},
		{"oversized job body", "POST", "/v1/models/m0/jobs", huge, 413},
		{"oversized scrub body", "POST", "/v1/admin/scrub", hugeString, 413},
		{"oversized rekey body", "POST", "/v1/admin/rekey", hugeString, 413},
		{"oversized inject body", "POST", "/v1/admin/inject", hugeString, 413},
		{"oversized add-model body", "POST", "/v1/admin/models/m9", hugeString, 413},
		{"unknown job", "GET", "/v1/jobs/job-ffffffff", "", 404},
		{"models list", "GET", "/v1/models", "", 200},
		{"model info", "GET", "/v1/models/m1", "", 200},
		{"model info 404", "GET", "/v1/models/zzz", "", 404},
		{"infer is POST-only", "GET", "/v1/models/m0/infer", "", 405},
		{"jobs is POST-only", "GET", "/v1/models/m0/jobs", "", 405},
		{"admin scrub bad JSON", "POST", "/v1/admin/scrub", `{`, 400},
		{"admin scrub unknown model", "POST", "/v1/admin/scrub", `{"model":"zzz"}`, 404},
		{"admin rekey unknown model", "POST", "/v1/admin/rekey", `{"model":"zzz"}`, 404},
		{"admin scrub is POST-only", "GET", "/v1/admin/scrub", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s → %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}
}

// TestWrongChannelCountRejected: an input whose channel count is not the
// model's is an error at submission — 400 over HTTP — whether or not the
// model pins its input shape. Unpinned, it used to reach the stem's channel
// panic on a worker goroutine and take the process down; so did a shape
// with a dimension below 1 whose volume still matched the values sent
// (3·(−8)·(−8) = 192, or 0 for no values), and one whose volume wraps to 0.
func TestWrongChannelCountRejected(t *testing.T) {
	unpin := func(c *config) { c.inputShape = nil }
	for name, opts := range map[string][]ModelOption{"pinned": {WithScrub(0)}, "unpinned": {WithScrub(0), unpin}} {
		t.Run(name, func(t *testing.T) {
			svc, b, _ := openTiny(t, 1, opts)
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			post := func(body string) int {
				resp, err := http.Post(ts.URL+"/v1/models/m0/infer", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp.StatusCode
			}
			if _, err := svc.Infer(context.Background(), Request{Model: "m0", Input: tensor.New(5, 8, 8)}); err == nil {
				t.Fatal("Infer accepted a 5-channel input for a 3-channel model")
			}
			if _, err := svc.Infer(context.Background(), Request{Model: "m0", Input: &tensor.Tensor{Shape: []int{3, -8, -8}, Data: make([]float32, 192)}}); err == nil {
				t.Fatal("Infer accepted a (3,-8,-8) input")
			}
			five, _ := json.Marshal(InferRequest{Input: make([]float32, 5*8*8), Shape: []int{5, 8, 8}})
			if got := post(string(five)); got != http.StatusBadRequest {
				t.Fatalf("5-channel body → %d, want 400", got)
			}
			negative, _ := json.Marshal(InferRequest{Input: make([]float32, 192), Shape: []int{3, -8, -8}})
			for _, body := range []string{
				string(negative),
				`{"inputs":[[]],"shape":[3,0,64]}`,
				`{"inputs":[[]],"shape":[3,4294967296,4294967296]}`,
			} {
				if got := post(body); got != http.StatusBadRequest {
					t.Fatalf("%.60s → %d, want 400", body, got)
				}
			}
			x, _ := b[0].Test.Batch(0, 1)
			three, _ := json.Marshal(InferRequest{Input: x.Data, Shape: x.Shape[1:]})
			if got := post(string(three)); got != http.StatusOK {
				t.Fatalf("a good request after the rejected ones → %d, want 200", got)
			}
		})
	}
}

// TestHTTPJobRoundTrip drives the async wire protocol: 202 + job ref on
// submit, pollable status, and the result embedded once state is "done".
func TestHTTPJobRoundTrip(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	x, _ := b[0].Test.Batch(0, 1)

	resp, err := http.Post(ts.URL+"/v1/models/m0/jobs", "application/json",
		strings.NewReader(tinyBody(t, sample(x, 0))))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d, want 202", resp.StatusCode)
	}
	var ref JobRef
	if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ref.ID == "" || ref.Model != "m0" || ref.Location != "/v1/jobs/"+string(ref.ID) {
		t.Fatalf("job ref: %+v", ref)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + ref.Location)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == JobDone {
			if st.Result == nil || len(st.Result.Logits) == 0 {
				t.Fatalf("done job carries no result: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHTTPQueueAndTableSaturation: a wedged model with a capacity-1 job
// table answers the first job with 202 and the second with 429 +
// Retry-After — the connection is never parked.
func TestHTTPQueueAndTableSaturation(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	svc.jobs.cap = 1
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	x, _ := b[0].Test.Batch(0, 1)
	body := tinyBody(t, sample(x, 0))
	release := wedge(t, svc, "m0")
	defer release()

	resp, err := http.Post(ts.URL+"/v1/models/m0/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job status %d, want 202", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/models/m0/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity job status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	release()
}

// TestHTTPStopping: after Close, submissions answer 503 with Retry-After.
func TestHTTPStopping(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	x, _ := b[0].Test.Batch(0, 1)
	body := tinyBody(t, sample(x, 0))
	svc.Close()

	for _, path := range []string{"/v1/models/m0/infer", "/v1/models/m0/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s on stopped service → %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s: 503 without Retry-After", path)
		}
	}
}

// TestHTTPModelsAndAdmin exercises the control plane end to end: the
// models listing carries per-model metrics and job-table stats, admin
// scrub reports per-model findings, and admin rekey answers with
// rekeyed=true while the model keeps serving.
func TestHTTPModelsAndAdmin(t *testing.T) {
	svc, b, _ := openTiny(t, 2, []ModelOption{WithScrub(0)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	x, _ := b[0].Test.Batch(0, 1)
	body := tinyBody(t, sample(x, 0))

	if resp, err := http.Post(ts.URL+"/v1/models/m0/infer", "application/json", strings.NewReader(body)); err != nil || resp.StatusCode != 200 {
		t.Fatalf("warmup infer: %v %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var models ModelsResponse
	if err := json.Unmarshal(listing, &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 2 || models.Models[0].Name != "m0" || models.Models[1].Name != "m1" {
		t.Fatalf("models listing: %+v", models)
	}
	if strings.Contains(string(listing), `"jobs"`) {
		t.Fatalf("models listing copies the job-table figures of /v1/metrics: %s", listing)
	}
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`radar_requests_total{model="m0"} 1` + "\n",
		`radar_requests_total{model="m1"} 0` + "\n",
		fmt.Sprintf("radar_jobs_capacity %d\n", jobCapacity),
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/v1/metrics lacks %q", want)
		}
	}

	// Corrupt m1 directly (bypassing the model API) and scrub everything.
	l := b[1].QModel.Layers[0]
	if err := svc.Inject("m1", func(m *quant.Model) {
		l.Q[3] = quant.FlipBit(l.Q[3], quant.MSB)
	}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/admin/scrub", "application/json",
		strings.NewReader(`{"full":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var admin adminResponse
	if err := json.NewDecoder(resp.Body).Decode(&admin); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(admin.Results) != 2 || admin.Results[0].Flagged != 0 || admin.Results[1].Flagged == 0 {
		t.Fatalf("admin scrub results: %+v", admin)
	}

	resp, err = http.Post(ts.URL+"/v1/admin/rekey", "application/json",
		strings.NewReader(`{"model":"m0"}`))
	if err != nil {
		t.Fatal(err)
	}
	admin = adminResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&admin); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(admin.Results) != 1 || !admin.Results[0].Rekeyed || admin.Results[0].Model != "m0" {
		t.Fatalf("admin rekey results: %+v", admin)
	}
	if resp, err := http.Post(ts.URL+"/v1/models/m0/infer", "application/json", strings.NewReader(body)); err != nil || resp.StatusCode != 200 {
		t.Fatalf("post-rekey infer: %v %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestHTTPLegacyShimsGone: the pre-v1 routes were removed after their
// deprecation window — they must 404, not silently route anywhere.
func TestHTTPLegacyShimsGone(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	x, _ := b[0].Test.Batch(0, 1)

	resp, err := http.Post(ts.URL+"/infer", "application/json",
		strings.NewReader(tinyBody(t, sample(x, 0))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed POST /infer answered %d, want 404", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("removed GET %s answered %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHTTPJobCancel drives DELETE /v1/jobs/{id} over the wire: a pending
// job answers with state "cancelled", its table slot is freed, and the ID
// is unknown afterwards.
func TestHTTPJobCancel(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	x, _ := b[0].Test.Batch(0, 1)
	release := wedge(t, svc, "m0")
	defer release()

	resp, err := http.Post(ts.URL+"/v1/models/m0/jobs", "application/json",
		strings.NewReader(tinyBody(t, sample(x, 0))))
	if err != nil {
		t.Fatal(err)
	}
	var ref JobRef
	if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	del, err := http.NewRequest(http.MethodDelete, ts.URL+ref.Location, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != JobCancelled || st.ID != ref.ID {
		t.Fatalf("cancel answered %+v", st)
	}
	if n, _, _ := svc.jobs.stats(); n != 0 {
		t.Fatalf("cancelled job still holds a table slot (%d active)", n)
	}

	// The ID is gone: polling and re-cancelling both 404.
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL+ref.Location, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on cancelled job → %d, want 404", method, resp.StatusCode)
		}
	}
}

// tinyProvider backs the admin hot-add route in tests: every source builds
// a fresh tiny model.
func tinyProvider(name, source string) (*qinfer.Engine, *core.Protector, []ModelOption, error) {
	m, err := Build(model.TinySpec(), core.DefaultConfig(4), "")
	if err != nil {
		return nil, nil, nil, err
	}
	return m.Engine, m.Prot, append(m.Options, WithScrub(0)), nil
}

// TestHTTPAddModelDuplicateSkipsProvider pins the hot-add ordering: a POST
// for a name that is already serving must 409 BEFORE the ModelProvider
// runs. radar-serve's provider rebinds the name's store checkpoint as a
// side effect, which would unmap weights the live engine still reads —
// the name is reserved first so that path never executes for a duplicate.
func TestHTTPAddModelDuplicateSkipsProvider(t *testing.T) {
	var calls atomic.Int32
	counting := func(name, source string) (*qinfer.Engine, *core.Protector, []ModelOption, error) {
		calls.Add(1)
		return tinyProvider(name, source)
	}
	svc, _, _ := openTiny(t, 1, []ModelOption{WithScrub(0)}, WithModelProvider(counting))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/admin/models/m0", "application/json",
		strings.NewReader(`{"source":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate add → %d, want 409", resp.StatusCode)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("provider ran %d time(s) for an already-served name", n)
	}

	// A free name still goes through the provider and registers, and the
	// released reservation doesn't block it.
	resp, err = http.Post(ts.URL+"/v1/admin/models/fresh", "application/json",
		strings.NewReader(`{"source":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add of a free name → %d, want 201", resp.StatusCode)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("provider ran %d time(s) for a free name, want 1", n)
	}

	// Once registered, the name conflicts again without a provider call.
	resp, _ = http.Post(ts.URL+"/v1/admin/models/fresh", "application/json",
		strings.NewReader(`{"source":"tiny"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-add of registered name → %d, want 409", resp.StatusCode)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("provider ran %d time(s) after re-add, want still 1", n)
	}
}

// TestHTTPAdminModels exercises hot add/remove over the wire: 501 without
// a provider, 201 + served traffic after an add, 409 on duplicate names
// and on removing the last model, 204 + 404 after a remove.
func TestHTTPAdminModels(t *testing.T) {
	bare, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	bareTS := httptest.NewServer(bare.Handler())
	defer bareTS.Close()
	x, _ := b[0].Test.Batch(0, 1)
	body := tinyBody(t, sample(x, 0))

	resp, err := http.Post(bareTS.URL+"/v1/admin/models/extra", "application/json",
		strings.NewReader(`{"source":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("add without provider → %d, want 501", resp.StatusCode)
	}

	svc, _, _ := openTiny(t, 1, []ModelOption{WithScrub(0)},
		WithModelProvider(tinyProvider))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err = http.Post(ts.URL+"/v1/admin/models/extra", "application/json",
		strings.NewReader(`{"source":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("hot add → %d, want 201", resp.StatusCode)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Name != "extra" || !info.Healthy {
		t.Fatalf("hot add info: %+v", info)
	}

	// The added model serves immediately.
	resp, err = http.Post(ts.URL+"/v1/models/extra/infer", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer on hot-added model → %d", resp.StatusCode)
	}

	// Duplicate name → 409.
	resp, _ = http.Post(ts.URL+"/v1/admin/models/extra", "application/json",
		strings.NewReader(`{"source":"tiny"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate add → %d, want 409", resp.StatusCode)
	}

	// Remove it; traffic now 404s and a re-remove 404s too.
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/models/extra", nil)
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("hot remove → %d, want 204", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/v1/models/extra/infer", "application/json",
		strings.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("infer on removed model → %d, want 404", resp.StatusCode)
	}

	// The last hosted model is protected → 409.
	del, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/models/m0", nil)
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("remove last model → %d, want 409", resp.StatusCode)
	}
}

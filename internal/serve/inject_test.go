package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"radar/internal/core"
)

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

// TestInjectAdversaryHTTP drives POST /v1/admin/inject end to end: a
// sigstore volley against a correcting model is flagged by the next full
// scrub and repaired by the class-0 ECC path — weights untouched, golden
// signatures restored — with the adversary and correction counters
// visible in /v1/metrics.
func TestInjectAdversaryHTTP(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Correct = true
	cfg.Seed = 2
	o, _, prot := tinyModelOptionWith(t, "m0", cfg, WithScrub(0))
	svc, err := Open(o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/admin/inject",
		`{"model":"m0","adversary":"sigstore","flips":3,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject: status %d body %s", resp.StatusCode, body)
	}
	var rep InjectReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SigFlips != 3 || rep.WeightFlips != 0 {
		t.Fatalf("sigstore volley report %+v, want 3 signature flips", rep)
	}

	resp, body = postJSON(t, ts.URL+"/v1/admin/scrub", `{"model":"m0","full":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub: status %d body %s", resp.StatusCode, body)
	}
	st := prot.Stats()
	if st.GroupsCorrected != 3 || st.WeightsZeroed != 0 {
		t.Fatalf("want 3 class-0 corrections and no zeroing, got %+v", st)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`radar_adversary_flips_total{model="m0"} 3`,
		`radar_groups_corrected_total{model="m0"} 3`,
		`radar_groups_zeroed_total{model="m0"} 0`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	info := svc.Models()[0]
	if !info.Correcting {
		t.Fatal("ModelInfo.Correcting should report the ECC mode")
	}
}

// TestInjectAdversaryValidation: unknown adversaries, absent models and
// non-positive budgets are rejected before anything is mounted.
func TestInjectAdversaryValidation(t *testing.T) {
	svc, _, prots := openTiny(t, 1, []ModelOption{WithScrub(0)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"model":"m0","adversary":"bogus","flips":3}`, http.StatusBadRequest},
		{`{"model":"m0","adversary":"oblivious","flips":0}`, http.StatusBadRequest},
		{`{"model":"nope","adversary":"oblivious","flips":3}`, http.StatusNotFound},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/admin/inject", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.body, resp.StatusCode, body, tc.want)
		}
	}
	if st := prots[0].Stats(); st.GroupsFlagged != 0 {
		t.Fatal("rejected injections must not have touched the model")
	}
}

// TestInjectAdversaryZeroingFallback: without correction the same
// injected corruption lands on the zeroing path and the split counters
// say so.
func TestInjectAdversaryZeroingFallback(t *testing.T) {
	svc, _, prots := openTiny(t, 1, []ModelOption{WithScrub(0)})
	if _, err := svc.InjectAdversary("m0", "oblivious", 4, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Scrub("m0", true); err != nil {
		t.Fatal(err)
	}
	st := prots[0].Stats()
	if st.GroupsZeroed == 0 || st.GroupsCorrected != 0 {
		t.Fatalf("zeroing-only model: want zeroed>0 corrected=0, got %+v", st)
	}
	text := exposition(svc)
	for _, want := range []string{
		fmt.Sprintf(`radar_groups_zeroed_total{model="m0"} %d`+"\n", st.GroupsZeroed),
		`radar_groups_corrected_total{model="m0"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics split mismatch: want %q for %+v", want, st)
		}
	}
}

// TestInjectBesideRekey: planning a volley reads the secrets a rekey
// replaces and the weights a repair writes, so an injection must plan
// inside the same exclusive section it mounts in (run under -race).
func TestInjectBesideRekey(t *testing.T) {
	svc, _, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := svc.Rekey("m0"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := svc.InjectAdversary("m0", "below-threshold", 2, int64(i)); err != nil {
			t.Error(err)
			break
		}
	}
	<-done
}

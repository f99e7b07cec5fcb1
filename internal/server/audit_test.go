package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"condensation/internal/audit"
	"condensation/internal/telemetry"
)

// auditBody decodes a /v1/audit response.
func auditBody(t *testing.T, resp *http.Response) *audit.Report {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/v1/audit status %d: %s", resp.StatusCode, body)
	}
	var rep audit.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decoding audit report: %v", err)
	}
	return &rep
}

func TestAuditEmpty(t *testing.T) {
	ts := newTestServer(t, 5)
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	rep := auditBody(t, resp)
	if rep.Groups != 0 || rep.Records != 0 || rep.MinGroupSize != 0 {
		t.Fatalf("pre-ingest audit = %+v", rep)
	}
}

func TestAuditAfterIngest(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 5, 1), 2, 1), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	testServers[ts.URL] = s
	defer delete(testServers, ts.URL)

	if resp := postRecords(t, ts, genRecords(7, 400)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	rep := auditBody(t, resp)
	if rep.Records != 400 {
		t.Errorf("audited %d records, want 400", rep.Records)
	}
	if rep.MinGroupSize < 5 || rep.MaxGroupSize > 9 {
		t.Errorf("group sizes [%d, %d] outside [k, 2k−1] on a healthy stream", rep.MinGroupSize, rep.MaxGroupSize)
	}
	if len(rep.GroupSizeHist) == 0 {
		t.Error("group-size histogram empty")
	}
	if rep.SSERatio <= 0 || rep.SSERatio >= 1 {
		t.Errorf("sse_ratio = %v, want in (0,1)", rep.SSERatio)
	}
	if rep.KS == nil {
		t.Fatal("KS block missing (reservoir should have sampled the batch)")
	}
	if rep.KS.OriginalSample != 400 {
		t.Errorf("KS original sample = %d, want 400", rep.KS.OriginalSample)
	}
	if len(rep.KS.PerAttribute) != 2 {
		t.Errorf("KS per-attribute = %v", rep.KS.PerAttribute)
	}

	// The same numbers must appear as Prometheus series on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	metrics := string(body)
	for _, want := range []string{
		"condense_audit_runs_total 1",
		"condense_audit_min_group_size ",
		"condense_audit_records 400",
		"condense_audit_sse_ratio ",
		"condense_audit_group_size_count ",
		"condense_audit_cond_number_count ",
		"condense_audit_ks_mean ",
		`condense_audit_ks_distance{attr="0"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := reg.Gauge("condense_audit_sse_ratio").Value(); got != rep.SSERatio {
		t.Errorf("gauge sse_ratio %v != report %v", got, rep.SSERatio)
	}
	if got := reg.Gauge("condense_audit_groups").Value(); got != float64(rep.Groups) {
		t.Errorf("gauge groups %v != report %v", got, rep.Groups)
	}
}

// TestAuditObserveOnly: running audits does not perturb the condensation
// or the synthesized snapshot stream.
func TestAuditObserveOnly(t *testing.T) {
	plain := newTestServer(t, 4)
	audited := newTestServer(t, 4)

	records := genRecords(3, 200)
	postRecords(t, plain, records)
	postRecords(t, audited, records)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(audited.URL + "/v1/audit")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	a, err := http.Get(plain.URL + "/v1/snapshot?seed=9")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Body.Close()
	b, err := http.Get(audited.URL + "/v1/snapshot?seed=9")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Body.Close()
	ba, _ := io.ReadAll(a.Body)
	bb, _ := io.ReadAll(b.Body)
	if string(ba) != string(bb) {
		t.Fatal("audited server synthesized a different snapshot")
	}
}

func TestAuditSampleDisabled(t *testing.T) {
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 4, 1), 2, 1), AuditSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	testServers[ts.URL] = s
	defer delete(testServers, ts.URL)
	postRecords(t, ts, genRecords(5, 100))
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	rep := auditBody(t, resp)
	if rep.KS != nil {
		t.Fatalf("KS block present with reservoir disabled: %+v", rep.KS)
	}
	if rep.Records != 100 {
		t.Errorf("records = %d", rep.Records)
	}
}

func TestTraceEndpoint(t *testing.T) {
	// Disabled: 404.
	off := newTestServer(t, 4)
	resp, err := http.Get(off.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint without tracer: status %d, want 404", resp.StatusCode)
	}

	// Enabled at 1-in-1: requests leave spans, exported as Chrome JSON.
	tr := telemetry.NewTracer(256, 1)
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 4, 1), 2, 1), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	testServers[ts.URL] = s
	defer delete(testServers, ts.URL)

	postRecords(t, ts, genRecords(2, 150))
	resp, err = http.Get(ts.URL + "/debug/trace?last=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content-type %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace output not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"http /v1/records", "dynamic.add_batch", "dynamic.speculate", "dynamic.apply"} {
		if !names[want] {
			t.Errorf("trace missing %q span (got %v)", want, names)
		}
	}

	// Bad ?last.
	resp, err = http.Get(ts.URL + "/debug/trace?last=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad last: status %d, want 400", resp.StatusCode)
	}
}

package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lockstep/internal/dataset"
	"lockstep/internal/inject"
	"lockstep/internal/telemetry"
)

// distCampaignJSON submits trainingCampaign as a distributed job.
const distCampaignJSON = `{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":24,"seed":9,"distribute":true,"lease_size":32}`

// startWorkers joins n in-process workers to url, time-sliced through a
// shared gate (the test host may have one core), and fails the test on
// any worker error.
func startWorkers(t *testing.T, url string, n int) *sync.WaitGroup {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	gate := &sync.Mutex{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := RunWorker(ctx, WorkerOptions{
				URL: url, Name: name, InjectWorkers: 1, gate: gate,
			})
			if err != nil {
				t.Errorf("worker %s: %v (stats %+v)", name, err, st)
			}
			// A worker that ran spans reports where their time went.
			if st.Spans > 0 && (st.Phases.Plan <= 0 || st.Phases.Golden <= 0 || st.Phases.Simulate <= 0) {
				t.Errorf("worker %s: phases %s not measured (%d spans)", name, st.Phases, st.Spans)
			}
		}()
	}
	return &wg
}

// TestDistributedCampaignMatchesDirect is the tentpole's server-side
// contract: a distribute:true campaign served to two worker nodes over
// real HTTP produces a dataset byte-identical to a direct inject.Run.
func TestDistributedCampaignMatchesDirect(t *testing.T) {
	_, wantCSV, _ := testFixture(t)
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	code, body := do(t, s, "POST", "/v1/campaigns", distCampaignJSON)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)

	startWorkers(t, ts.URL+"/v1/campaigns/"+id, 2).Wait()
	waitJob(t, s, id, stateDone)

	code, dsBody := do(t, s, "GET", "/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset: status %d", code)
	}
	if got := dsBody["raw"].(string); !bytes.Equal([]byte(got), wantCSV) {
		t.Fatalf("distributed dataset differs from direct inject.Run (%d vs %d bytes)", len(got), len(wantCSV))
	}

	// A straggler's span submission after completion is acked as a
	// duplicate, not an error — the worker can exit clean.
	sub := &inject.SpanSubmit{Worker: "late", Digest: id, LeaseID: 99,
		Span: inject.Span{Lo: 0, Hi: 2}, Records: make([]dataset.Record, 2)}
	code, ack := do(t, s, "POST", "/v1/campaigns/"+id+"/spans", string(sub.Encode()))
	if code != http.StatusOK {
		t.Fatalf("late span: status %d %v", code, ack)
	}
	reply, err := inject.DecodeSpanReply([]byte(ack["raw"].(string)))
	if err != nil || !reply.Duplicate {
		t.Fatalf("late span ack: %+v, %v; want duplicate", reply, err)
	}

	// And a late lease request gets a clean LeaseDone.
	lr := &inject.LeaseRequest{Worker: "late", Digest: id}
	code, lease := do(t, s, "POST", "/v1/campaigns/"+id+"/leases", string(lr.Encode()))
	if code != http.StatusOK {
		t.Fatalf("late lease: status %d %v", code, lease)
	}
	lreply, err := inject.DecodeLeaseReply([]byte(lease["raw"].(string)))
	if err != nil || lreply.Status != inject.LeaseDone {
		t.Fatalf("late lease reply: %+v, %v; want LeaseDone", lreply, err)
	}
}

// TestDistributorMatchesDirect covers the lockstep-inject -distribute
// topology in-process: a standalone Distributor coordinator, one joined
// worker, byte-identical result.
func TestDistributorMatchesDirect(t *testing.T) {
	_, wantCSV, _ := testFixture(t)
	co, err := inject.NewCoordinator(trainingCampaign(), inject.DistConfig{LeaseSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewDistributor(co))
	t.Cleanup(ts.Close)

	// The wrong campaign digest in the URL is a structured 404.
	resp, err := http.Post(ts.URL+"/v1/campaigns/bogus/leases", "application/octet-stream",
		bytes.NewReader((&inject.LeaseRequest{Worker: "w", Digest: "bogus"}).Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus campaign: status %d, want 404", resp.StatusCode)
	}

	startWorkers(t, ts.URL+"/v1/campaigns/"+co.Digest(), 1).Wait()
	if err := co.WaitDone(nil); err != nil {
		t.Fatal(err)
	}
	ds, _, err := co.Result()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantCSV) {
		t.Fatal("distributor dataset differs from direct inject.Run")
	}
}

// TestDistributedEndpointErrors pins the structured error envelope on
// the lease and span paths: stable codes, right statuses.
func TestDistributedEndpointErrors(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.LeaseTTL = time.Millisecond // expire leases nearly instantly
	})
	code, body := do(t, s, "POST", "/v1/campaigns", distCampaignJSON)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)

	// Acquire a lease directly (waiting out the coordinator's startup).
	var granted *inject.LeaseReply
	for deadline := time.Now().Add(30 * time.Second); ; {
		lr := &inject.LeaseRequest{Worker: "w", Digest: id}
		code, body := do(t, s, "POST", "/v1/campaigns/"+id+"/leases", string(lr.Encode()))
		if code != http.StatusOK {
			t.Fatalf("lease: status %d %v", code, body)
		}
		reply, err := inject.DecodeLeaseReply([]byte(body["raw"].(string)))
		if err != nil {
			t.Fatal(err)
		}
		if reply.Status == inject.LeaseGranted {
			granted = reply
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Let the 1ms TTL lapse, then have another worker trigger the expiry
	// sweep and take over the span.
	time.Sleep(20 * time.Millisecond)
	lr := &inject.LeaseRequest{Worker: "thief", Digest: id}
	code, body = do(t, s, "POST", "/v1/campaigns/"+id+"/leases", string(lr.Encode()))
	if code != http.StatusOK {
		t.Fatalf("second lease: status %d %v", code, body)
	}

	// The original worker's commit now lands on an expired, re-issued
	// lease over an uncovered span: 409 lease_expired.
	sub := &inject.SpanSubmit{Worker: "w", Digest: id, LeaseID: granted.LeaseID, Span: granted.Span,
		Records: make([]dataset.Record, granted.Span.Hi-granted.Span.Lo)}
	code, body = do(t, s, "POST", "/v1/campaigns/"+id+"/spans", string(sub.Encode()))
	if code != http.StatusConflict || apiErrOf(t, body)["code"] != "lease_expired" {
		t.Fatalf("expired commit: %d %v, want 409 lease_expired", code, body)
	}

	cases := []struct {
		name       string
		path       string
		payload    string
		status     int
		errCode    string
		checkField string
	}{
		{"lease wrong digest", "/v1/campaigns/" + id + "/leases",
			string((&inject.LeaseRequest{Worker: "w", Digest: "0123456789abcdef"}).Encode()),
			http.StatusConflict, "fingerprint_mismatch", "digest"},
		{"span wrong digest", "/v1/campaigns/" + id + "/spans",
			string((&inject.SpanSubmit{Worker: "w", Digest: "0123456789abcdef", LeaseID: 1,
				Span: inject.Span{Lo: 0, Hi: 1}, Records: make([]dataset.Record, 1)}).Encode()),
			http.StatusConflict, "fingerprint_mismatch", "digest"},
		{"lease garbage body", "/v1/campaigns/" + id + "/leases", "not a wire message",
			http.StatusBadRequest, "bad_request", ""},
		{"span garbage body", "/v1/campaigns/" + id + "/spans", "not a wire message",
			http.StatusBadRequest, "bad_request", ""},
		{"lease unknown campaign", "/v1/campaigns/ffffffffffffffff/leases",
			string((&inject.LeaseRequest{Worker: "w", Digest: "ffffffffffffffff"}).Encode()),
			http.StatusNotFound, "unknown_job", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, s, "POST", tc.path, tc.payload)
			e := apiErrOf(t, body)
			if code != tc.status || e["code"] != tc.errCode {
				t.Fatalf("got %d %v, want %d %s", code, body, tc.status, tc.errCode)
			}
			if tc.checkField != "" && e["field"] != tc.checkField {
				t.Fatalf("error field %v, want %s", e["field"], tc.checkField)
			}
		})
	}
}

// TestLeaseOnLocalCampaign: the distributed endpoints on a campaign
// submitted without distribute:true answer 409 not_distributed while it
// runs (and leases/spans are honored once done — see the lifecycle test).
func TestLeaseOnLocalCampaign(t *testing.T) {
	s := newTestServer(t, nil)
	// Big enough not to finish before the assertions below.
	code, body := do(t, s, "POST", "/v1/campaigns",
		`{"kernels":["ttsprk"],"run_cycles":12000,"flop_stride":2,"seed":11}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)

	lr := &inject.LeaseRequest{Worker: "w", Digest: id}
	code, body = do(t, s, "POST", "/v1/campaigns/"+id+"/leases", string(lr.Encode()))
	if code != http.StatusConflict || apiErrOf(t, body)["code"] != "not_distributed" {
		t.Fatalf("lease on local campaign: %d %v, want 409 not_distributed", code, body)
	}
	sub := &inject.SpanSubmit{Worker: "w", Digest: id, LeaseID: 1,
		Span: inject.Span{Lo: 0, Hi: 1}, Records: make([]dataset.Record, 1)}
	code, body = do(t, s, "POST", "/v1/campaigns/"+id+"/spans", string(sub.Encode()))
	if code != http.StatusConflict || apiErrOf(t, body)["code"] != "not_distributed" {
		t.Fatalf("span on local campaign: %d %v, want 409 not_distributed", code, body)
	}
}

// TestSubmitForeignCheckpointRejected: submitting a campaign whose data
// directory holds a checkpoint from a different schedule is refused at
// submission time with 409 config_mismatch (previously this surfaced
// only when the job ran).
func TestSubmitForeignCheckpointRejected(t *testing.T) {
	var dir string
	s := newTestServer(t, func(o *Options) { dir = o.DataDir })

	// The ID the submission will get.
	cfg := trainingCampaign()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	id := fp.Digest()

	// Plant a checkpoint from a different schedule under that ID.
	foreign := cfg
	foreign.Seed = 999
	foreign.CheckpointPath = filepath.Join(dir, id+".ck")
	foreign.CheckpointEvery = 1
	if _, err := inject.Run(foreign); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(foreign.CheckpointPath); err != nil {
		t.Fatal(err)
	}

	code, body := do(t, s, "POST", "/v1/campaigns", campaignJSON)
	e := apiErrOf(t, body)
	if code != http.StatusConflict || e["code"] != "config_mismatch" {
		t.Fatalf("foreign checkpoint submit: %d %v, want 409 config_mismatch", code, body)
	}
	if e["field"] == nil || e["field"] == "" {
		t.Fatalf("config_mismatch without the offending field: %v", e)
	}
}

// TestDistributedRestartResume: a drained server with a half-merged
// distributed campaign resumes it on restart from the checkpoint, and
// the final dataset is byte-identical to a direct run.
func TestDistributedRestartResume(t *testing.T) {
	_, wantCSV, _ := testFixture(t)
	dir := t.TempDir()
	_, _, table := testFixture(t)

	s1, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New(), LeaseSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	code, body := do(t, s1, "POST", "/v1/campaigns",
		`{"kernels":["ttsprk"],"run_cycles":3000,"flop_stride":24,"seed":9,"distribute":true,"checkpoint_every":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, body)
	}
	id := body["id"].(string)

	// One worker merges part of the campaign, then the server drains.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	url := ts1.URL + "/v1/campaigns/" + id
	client := &http.Client{Timeout: 10 * time.Second}
	var runner *inject.SpanRunner
	merged := 0
	for merged < 3 {
		reply, err := leaseOnce(ctx, client, url, &inject.LeaseRequest{Worker: "w", Digest: id})
		if err != nil {
			t.Fatal(err)
		}
		if reply.Status != inject.LeaseGranted {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if runner == nil {
			rcfg, err := reply.FP.Config()
			if err != nil {
				t.Fatal(err)
			}
			rcfg.Workers = 1
			if runner, err = inject.NewSpanRunner(rcfg); err != nil {
				t.Fatal(err)
			}
		}
		records, st, err := runner.Run(reply.Span)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spanOnce(ctx, client, url, &inject.SpanSubmit{
			Worker: "w", Digest: id, LeaseID: reply.LeaseID, Span: reply.Span,
			Pruned: st.Pruned, OracleChecked: st.OracleChecked, Records: records,
		}); err != nil {
			t.Fatal(err)
		}
		merged++
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Restart on the same directory: the job is adopted, the coordinator
	// resumes from the checkpoint, and a worker finishes it.
	s2, err := New(Options{Table: table, DataDir: dir, Registry: telemetry.New(), LeaseSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s2.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	startWorkers(t, ts2.URL+"/v1/campaigns/"+id, 1).Wait()
	waitJob(t, s2, id, stateDone)

	code, dsBody := do(t, s2, "GET", "/v1/campaigns/"+id+"/dataset", "")
	if code != http.StatusOK {
		t.Fatalf("dataset: status %d", code)
	}
	if got := dsBody["raw"].(string); !bytes.Equal([]byte(got), wantCSV) {
		t.Fatal("resumed distributed dataset differs from direct inject.Run")
	}
}

package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"lockstep/internal/inject"
	"lockstep/internal/loadgen"
	"lockstep/internal/sbist"
	"lockstep/internal/server"
)

// tinyCampaign is small enough to run in a test and still prunes,
// replays and checkpoints.
var tinyCampaign = campaignSpec{Kernels: []string{"ttsprk"}, Cycles: 600, Stride: 61, Inj: 2, Mode: "dcls", Checkpoint: true}

// programDataset runs the campaign through the program's own executor.
func programDataset(t *testing.T, spec campaignSpec) []byte {
	t.Helper()
	cfg, err := spec.config(1)
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := inject.RunStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The traced rebuild must write the program's dataset byte for byte,
// and the digest check must refuse a dataset with one flipped byte.
func TestDatasetCheckCatchesFlippedByte(t *testing.T) {
	want := programDataset(t, tinyCampaign)
	tr := newTracer()
	b, err := rebuild(tinyCampaign, 1, filepath.Join(t.TempDir(), "ck.lsc"), tr)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	if !res.check("rebuilt dataset", sha(want), sha(b.csv), b.rows) || !res.Correct || res.Failed != 0 {
		t.Fatalf("rebuilt dataset differs from the program's:\n%s\nwant\n%s", b.csv, want)
	}
	if b.pruned == 0 || b.replays == 0 || b.ckptWrites == 0 {
		t.Fatalf("tiny campaign exercised too little: %+v", b)
	}

	// Layer self times add up to the traced wall.
	var sum int64
	for _, lt := range tr.layers() {
		sum += lt.Self.Nanoseconds()
	}
	if wall := tr.layers()["campaign"].Total.Nanoseconds(); sum != wall {
		t.Fatalf("self times sum to %d ns, the root span lasted %d ns", sum, wall)
	}

	flipped := append([]byte(nil), b.csv...)
	flipped[len(flipped)/2] ^= 1
	if res.check("flipped dataset", sha(want), sha(flipped), b.rows) {
		t.Fatal("a dataset with a flipped byte passed the check")
	}
	if res.Correct || res.Failed != b.rows || res.Attempted != 2*b.rows {
		t.Fatalf("flipped byte not counted: correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// The predict check must refuse a response whose body differs from an
// earlier one to the same body from the same table version, on one
// connection and across connections.
func TestResponseCheckCatchesAlteredBody(t *testing.T) {
	table, err := trainLocal(programDataset(t, tinyCampaign))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Table: table, SBIST: sbist.NewConfig(table.Gran, nil, sbist.OnChipTableAccess)})
	if err != nil {
		t.Fatal(err)
	}
	var alter atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !alter.Load() {
			srv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		body[len(body)/2] ^= 1
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer ts.Close()

	ctrl := loadgen.Control{Requests: 32, HexProb: 0.5, KnownProb: 0.5, Seed: 1}
	for id := 0; id < table.Dict.Len(); id++ {
		ctrl.Known = append(ctrl.Known, table.Dict.Set(id))
	}
	bodies := ctrl.Bodies(0)
	addr := strings.TrimPrefix(ts.URL, "http://")

	good := newLoadClient(addr, bodies, srv.TableVersion(), "other")
	defer good.close()
	for i := range bodies {
		if _, err := good.do(i); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	memo := newResponseMemo()
	if bad := good.merge(memo); bad != 0 {
		t.Fatalf("%d mismatches on unaltered responses", bad)
	}

	alter.Store(true)
	if _, err := good.do(0); err == nil {
		t.Fatal("an altered response body passed the per-connection check")
	}

	// A second connection that only ever saw altered bodies is caught
	// when its responses meet the first connection's.
	other := newLoadClient(addr, bodies, srv.TableVersion(), "other")
	defer other.close()
	for i := range bodies {
		if _, err := other.do(i); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if bad := other.merge(memo); bad != len(bodies) {
		t.Fatalf("cross-connection check caught %d of %d altered responses", bad, len(bodies))
	}
}

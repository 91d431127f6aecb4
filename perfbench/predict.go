package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lockstep/internal/core"
	"lockstep/internal/dataset"
	"lockstep/internal/loadgen"
	"lockstep/internal/sbist"
	"lockstep/internal/server"
)

const (
	// loadClients closed-loop connections from one process: the callers
	// are lockstep error handlers, each blocked on its prediction. One
	// connection keeps the generator thread and the server thread that
	// answers it within the 2 CPUs the benchmark is sized for; with two,
	// four threads contend for two CPUs and the tail latency measures
	// the host's scheduler more than the server.
	loadClients = 1
	// predictServers is how many fresh servers an untraced run sets up
	// and loads in turn, each for an equal share of the measuring time.
	// A server process keeps its own latency level for its lifetime
	// (thread placement, heap layout), so the figures pool many.
	predictServers = 10
	// bodiesPerClient is the length of each client's request schedule;
	// a client cycles through it.
	bodiesPerClient = 4096
	warmupRequests  = 200
	// swapEvery is how often the benchmark activates the other table
	// version while the clients run: the writes beside the reads.
	swapEvery = time.Second
	// pollEvery is how often set-up polls the campaign job.
	pollEvery = 5 * time.Millisecond
	// serverProbeSeconds is the load window of the server-layer probe
	// in the traced run of a campaign workload.
	serverProbeSeconds = 2.0
	// slicesPerWindow cuts each load window into equal slices by
	// completion time, 100 ms each in a 30-second run, and the host's
	// steal time is sampled at every slice boundary; see predictE2E.
	slicesPerWindow = 30
)

// deployment is one lockstep-serve child brought to the serving state:
// the reference campaign trained into an active table (v1) and a second
// version (v2) registered beside it.
type deployment struct {
	srv      *serverProc
	hc       *http.Client
	job      string
	v1, v2   string
	dataset  []byte
	setup    time.Duration // server start to v2 registered
	campaign time.Duration // campaign submit to job done, training included
}

func referenceRequest(seed int64) []byte {
	c := referenceCampaign
	body, _ := json.Marshal(map[string]any{
		"kernels": c.Kernels, "run_cycles": c.Cycles, "flop_stride": c.Stride,
		"injections_per_flop_kind": c.Inj, "seed": seed, "mode": c.Mode,
		"workers": campaignWorkers, "train": true,
	})
	return body
}

// call does one JSON request against the server and decodes the reply.
func (d *deployment) call(method, path string, body []byte, wantStatus int, out any) error {
	req, err := http.NewRequest(method, d.srv.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, tail(string(data)))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// deploy starts a server in dir and brings it to the serving state. The
// caller stops d.srv.
func deploy(e *env, seed int64, dir string) (*deployment, error) {
	start := time.Now()
	srv, err := startServer(e.bin, dir)
	if err != nil {
		return nil, err
	}
	d := &deployment{srv: srv, hc: &http.Client{Timeout: 2 * time.Minute}}
	if err := d.bringUp(seed); err != nil {
		srv.kill()
		return nil, err
	}
	d.setup = time.Since(start)
	if err := d.call("GET", "/v1/campaigns/"+d.job+"/dataset", nil, http.StatusOK, &d.dataset); err != nil {
		srv.kill()
		return nil, err
	}
	return d, nil
}

func (d *deployment) bringUp(seed int64) error {
	type status struct {
		ID           string `json:"id"`
		State        string `json:"state"`
		Error        string `json:"error"`
		TrainedTable string `json:"trained_table"`
		TrainError   string `json:"train_error"`
	}
	var st status
	t := time.Now()
	if err := d.call("POST", "/v1/campaigns", referenceRequest(seed), http.StatusAccepted, &st); err != nil {
		return err
	}
	d.job = st.ID
	for st.State != "done" {
		if st.State == "failed" {
			return fmt.Errorf("reference campaign failed: %s", st.Error)
		}
		time.Sleep(pollEvery)
		if err := d.call("GET", "/v1/campaigns/"+d.job, nil, http.StatusOK, &st); err != nil {
			return err
		}
	}
	d.campaign = time.Since(t)
	if st.TrainedTable == "" {
		return fmt.Errorf("reference campaign trained no table: %s", st.TrainError)
	}
	d.v1 = st.TrainedTable

	var created struct {
		Table struct {
			Version string `json:"version"`
		} `json:"table"`
	}
	body, _ := json.Marshal(map[string]any{"campaign": d.job, "granularity": 13, "activate": false})
	if err := d.call("POST", "/v1/tables", body, http.StatusCreated, &created); err != nil {
		return err
	}
	d.v2 = created.Table.Version
	if d.v2 == "" || d.v2 == d.v1 {
		return fmt.Errorf("second table version %q does not differ from %q", d.v2, d.v1)
	}
	return nil
}

// trainLocal trains the table the server trains on campaign completion
// (granularity 7, every record, split seed 1) in this process.
func trainLocal(csv []byte) (*core.Table, error) {
	ds, err := dataset.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, err
	}
	table, _, _ := core.TrainSplit(ds, rand.New(rand.NewSource(1)), core.Coarse7, 0, 1)
	return table, nil
}

// loadBodies builds each client's batch-size predict schedule with
// loadgen: half hex-encoded, half drawn from the trained DSR population,
// the rest from the FuzzPredictRequest seed corpus.
func loadBodies(e *env, seed int64, table *core.Table, batch, requests int) ([][][]byte, error) {
	pool, err := loadgen.CorpusDSRs(filepath.Join(e.root, "internal", "server", "testdata", "fuzz", "FuzzPredictRequest"))
	if err != nil {
		return nil, err
	}
	ctrl := loadgen.Control{Clients: loadClients, Requests: requests, Batch: batch,
		HexProb: 0.5, KnownProb: 0.5, Seed: seed, Pool: pool}
	for id := 0; id < table.Dict.Len(); id++ {
		ctrl.Known = append(ctrl.Known, table.Dict.Set(id))
	}
	out := make([][][]byte, loadClients)
	for c := range out {
		out[c] = ctrl.Bodies(c)
	}
	return out, nil
}

// window is what one closed-loop load window measured.
type window struct {
	ok         int       // successful requests
	slices     [][]int64 // their latencies in ns, by completion slice
	sliceLen   time.Duration
	attempted  int
	failed     int
	wall       time.Duration
	serverCPU  time.Duration
	selfCPU    time.Duration
	sliceSteal []time.Duration // CPU time the hypervisor took from this host, by slice
	steal      time.Duration   // the same over the window
	activateMS []float64
	swaps      int
}

// p99 is the nearest-rank p99 latency of the window's responses, in ms.
func (w *window) p99() float64 {
	var ms []float64
	for _, lat := range w.slices {
		for _, ns := range lat {
			ms = append(ms, float64(ns)/1e6)
		}
	}
	return percentile(ms, 99)
}

// load runs the closed loop for dur after a warm-up: each client sends
// its next request when the previous response has arrived and been
// checked, while the benchmark activates the other table version every
// swapEvery. Every response is then checked against memo.
func (d *deployment) load(bodies [][][]byte, dur time.Duration, memo *responseMemo) (window, error) {
	clients := make([]*loadClient, len(bodies))
	for c := range clients {
		clients[c] = newLoadClient(strings.TrimPrefix(d.srv.base, "http://"), bodies[c], d.v1, d.v2)
		defer clients[c].close()
	}

	// Warm-up: connections, pools and caches, outside the window.
	var w window
	for _, lc := range clients {
		for i := 0; i < warmupRequests; i++ {
			if _, err := lc.do(i); err != nil {
				w.failed++
				fmt.Fprintln(os.Stderr, "perfbench: warm-up request:", err)
			}
			w.attempted++
		}
	}

	cpu0, err := d.srv.cpu()
	if err != nil {
		return w, err
	}
	self0 := selfCPU()
	start := time.Now()
	deadline := start.Add(dur)
	w.sliceLen = dur / slicesPerWindow
	// The host's steal time at every slice boundary.
	stealAt := make([]time.Duration, slicesPerWindow+1)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := range stealAt {
			time.Sleep(time.Until(start.Add(time.Duration(k) * w.sliceLen)))
			stealAt[k] = hostSteal()
		}
	}()
	per := make([]window, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pw := &per[c]
			pw.slices = make([][]int64, slicesPerWindow)
			for i := 0; time.Now().Before(deadline); i++ {
				lat, err := clients[c].do(i)
				pw.attempted++
				if err != nil {
					pw.failed++
					if pw.failed <= 3 {
						fmt.Fprintln(os.Stderr, "perfbench: predict:", err)
					}
					continue
				}
				k := min(int(time.Since(start)/w.sliceLen), slicesPerWindow-1)
				pw.slices[k] = append(pw.slices[k], lat.Nanoseconds())
			}
		}(c)
	}
	// The writer: activate the other version about once a second.
	versions := []string{d.v2, d.v1}
	for n := 0; ; n++ {
		next := start.Add(time.Duration(n+1) * swapEvery)
		if !next.Before(deadline) {
			break
		}
		time.Sleep(time.Until(next))
		t := time.Now()
		var swapped struct {
			Swapped bool `json:"swapped"`
		}
		err := d.call("POST", "/v1/tables/"+versions[n%2]+"/activate", nil, http.StatusOK, &swapped)
		w.attempted++
		if err != nil || !swapped.Swapped {
			w.failed++
			fmt.Fprintln(os.Stderr, "perfbench: table activation did not swap:", err)
			continue
		}
		w.activateMS = append(w.activateMS, float64(time.Since(t).Microseconds())/1e3)
		w.swaps++
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.selfCPU = selfCPU() - self0
	<-sampled
	for k := 0; k < slicesPerWindow; k++ {
		w.sliceSteal = append(w.sliceSteal, stealAt[k+1]-stealAt[k])
	}
	w.steal = stealAt[slicesPerWindow] - stealAt[0]
	cpu1, err := d.srv.cpu()
	if err != nil {
		return w, err
	}
	w.serverCPU = cpu1 - cpu0
	w.slices = make([][]int64, slicesPerWindow)
	for c, pw := range per {
		for k, lat := range pw.slices {
			w.slices[k] = append(w.slices[k], lat...)
			w.ok += len(lat)
		}
		w.attempted += pw.attempted
		w.failed += pw.failed
		w.failed += clients[c].merge(memo)
	}
	// Leave v1 active, as set-up did, for whatever runs next.
	if err := d.call("POST", "/v1/tables/"+d.v1+"/activate", nil, http.StatusOK, nil); err != nil {
		return w, err
	}
	return w, nil
}

// loadClient is one closed-loop keep-alive connection replaying its
// schedule. It speaks HTTP/1.1 on the socket itself and allocates
// nothing per request, so the generator spends little CPU beside the
// server on the same host.
type loadClient struct {
	addr   string
	conn   net.Conn
	rd     *bufio.Reader
	reqs   [][]byte // the whole request for each schedule entry
	bodies [][]byte
	etags  [2][]byte
	body   []byte
	// first holds the first response to each schedule entry from each
	// version; every later one must be byte-identical to it.
	first [][2][]byte
}

func newLoadClient(addr string, bodies [][]byte, v1, v2 string) *loadClient {
	c := &loadClient{
		addr:   addr,
		bodies: bodies,
		etags:  [2][]byte{[]byte(`"` + v1 + `"`), []byte(`"` + v2 + `"`)},
		first:  make([][2][]byte, len(bodies)),
	}
	for _, b := range bodies {
		c.reqs = append(c.reqs, []byte(fmt.Sprintf(
			"POST /v1/predict HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			addr, len(b), b)))
	}
	return c
}

func (c *loadClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends schedule entry i (modulo its length) and checks the response:
// status 200, an ETag naming one of the two registered versions, and the
// same bytes as the first response to that entry from that version. A
// request that fails drops the connection; the next one dials again.
func (c *loadClient) do(i int) (time.Duration, error) {
	i %= len(c.bodies)
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, err
		}
		conn.SetDeadline(time.Now().Add(time.Minute))
		c.conn, c.rd = conn, bufio.NewReader(conn)
	}
	start := time.Now()
	status, v, err := c.roundTrip(c.reqs[i])
	lat := time.Since(start)
	if err != nil {
		c.close()
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, tail(string(c.body)))
	}
	if v < 0 {
		return 0, fmt.Errorf("response ETag names neither registered version")
	}
	slot := &c.first[i][v]
	if *slot == nil {
		*slot = append([]byte(nil), c.body...)
	} else if !bytes.Equal(*slot, c.body) {
		return 0, fmt.Errorf("version %s answered %s with %q, earlier %q", c.etags[v], c.bodies[i], c.body, *slot)
	}
	return lat, nil
}

// roundTrip writes one request and reads the response head and body
// into c.body. It returns the status and which registered version the
// ETag names (-1 for neither).
func (c *loadClient) roundTrip(req []byte) (status, version int, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, 0, err
	}
	line, err := c.rd.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	for _, d := range line[9:12] {
		status = status*10 + int(d-'0')
	}
	length, version := -1, -1
	for {
		line, err := c.rd.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		if len(line) <= 2 {
			break
		}
		k, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, 0, fmt.Errorf("malformed header %q", line)
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			n := 0
			for _, d := range val {
				if d < '0' || d > '9' {
					return 0, 0, fmt.Errorf("malformed Content-Length %q", val)
				}
				n = n*10 + int(d-'0')
			}
			length = n
		case bytes.EqualFold(k, []byte("Etag")):
			for v, want := range c.etags {
				if bytes.Equal(val, want) {
					version = v
				}
			}
		}
	}
	if length < 0 {
		return 0, 0, errors.New("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.rd, c.body); err != nil {
		return 0, 0, err
	}
	return status, version, nil
}

// merge checks the client's first responses against memo, which spans
// clients and servers: equal bodies from one version must get equal
// responses everywhere. It returns the number of mismatches.
func (c *loadClient) merge(memo *responseMemo) int {
	bad := 0
	for i, slots := range c.first {
		for v, resp := range slots {
			if resp == nil {
				continue
			}
			if err := memo.check(string(c.etags[v]), c.bodies[i], resp); err != nil {
				bad++
				fmt.Fprintln(os.Stderr, "perfbench: OUTPUT CHECK FAILED:", err)
			}
		}
	}
	return bad
}

// responseMemo holds the first response seen for each (table version,
// request body) pair; every later one must be byte-identical to it.
type responseMemo struct {
	mu   sync.Mutex
	seen map[string][]byte
}

func newResponseMemo() *responseMemo { return &responseMemo{seen: map[string][]byte{}} }

func (m *responseMemo) check(etag string, body, resp []byte) error {
	key := etag + "\x00" + string(body)
	m.mu.Lock()
	defer m.mu.Unlock()
	prev, ok := m.seen[key]
	if !ok {
		m.seen[key] = append([]byte(nil), resp...)
		return nil
	}
	if !bytes.Equal(prev, resp) {
		return fmt.Errorf("version %s answered %s with %q, earlier %q", etag, body, resp, prev)
	}
	return nil
}

// lookup returns the recorded response for (etag, body), if any.
func (m *responseMemo) lookup(etag string, body []byte) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.seen[etag+"\x00"+string(body)]
	return r, ok
}

// predictE2E is the untraced predict-closed run: set-up and a share of
// the measuring time on each of predictServers fresh servers, so setup_s
// is a median and the load figures pool several server processes.
//
// The rate and latency figures come from the moments the host disturbed
// least. The hypervisor of a shared host stops the VM's CPUs now and then
// for a millisecond or more; a request caught by such a stall takes
// twenty times its usual time, so stalls in 1% of requests decide the
// p99. In probes, a 2.5-second window with no steal time had a p99 of
// 0.08-0.12 ms, and one with 1 s of steal, 0.6 ms; whole runs had 30% of
// their CPU time stolen. The 100 ms slices of all windows are ranked by
// the steal time /proc/stat reports over them, a measurement of the host
// that no change to the program can move. The slices without steal are
// kept, or the half with the least if that is more, and ops_per_s,
// p50_ms and p99_ms are computed over all their responses together.
func predictE2E(e *env, seed int64, seconds float64) (*result, error) {
	res := newResult()
	memo := newResponseMemo()
	var (
		bodies          [][][]byte
		setup, rss      []float64
		windows         []window
		firstDS, firstV string
		ok, requests    int
		serverCPU, self time.Duration
		slice           time.Duration
	)
	for i := 0; i < predictServers; i++ {
		e.calibrate()
		d, err := deploy(e, seed, filepath.Join(e.work, fmt.Sprintf("serve-%d", i)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.setup.Seconds())
		if i == 0 {
			firstDS, firstV = sha(d.dataset), d.v1+" "+d.v2
			table, err := trainLocal(d.dataset)
			if err == nil {
				bodies, err = loadBodies(e, seed, table, 1, bodiesPerClient)
			}
			if err != nil {
				d.srv.kill()
				return nil, err
			}
		}
		res.check("server campaign dataset", firstDS, sha(d.dataset), 1)
		if d.v1+" "+d.v2 != firstV {
			res.fail(1, fmt.Errorf("table versions %s %s, first server trained %s", d.v1, d.v2, firstV))
		}
		w, err := d.load(bodies, time.Duration(seconds/predictServers*float64(time.Second)), memo)
		if err != nil {
			d.srv.kill()
			return nil, err
		}
		peak, err := d.srv.stop()
		if err != nil {
			return nil, err
		}
		rss = append(rss, float64(peak)/(1<<20))
		res.Attempted += w.attempted
		res.Failed += w.failed
		if w.failed > 0 {
			res.Correct = false
		}
		ok += w.ok
		requests += w.attempted
		serverCPU += w.serverCPU
		self += w.selfCPU
		slice = w.sliceLen
		windows = append(windows, w)
		e.logf("server %d: setup %.3f s (campaign %.3f s), %d responses in %.2f s, %d swaps, server cpu %.2f s, peak rss %.1f MiB, host steal %v, p99 %.4f ms",
			i+1, d.setup.Seconds(), d.campaign.Seconds(), w.ok, w.wall.Seconds(), w.swaps, w.serverCPU.Seconds(), rss[i], w.steal, w.p99())
	}
	e.calibrate()
	if ok == 0 {
		return nil, errors.New("no predict request succeeded")
	}
	// Rank every slice of every window by the steal time over it, and
	// keep those with none, or the half with the least if that is more.
	type ranked struct {
		steal time.Duration
		lat   []int64
	}
	var slices []ranked
	quiet := 0
	for _, w := range windows {
		for k, lat := range w.slices {
			slices = append(slices, ranked{w.sliceSteal[k], lat})
			if w.sliceSteal[k] == 0 {
				quiet++
			}
		}
	}
	sort.SliceStable(slices, func(i, j int) bool { return slices[i].steal < slices[j].steal })
	kept := slices[:max(quiet, (len(slices)+1)/2)]
	var ms []float64
	for _, sl := range kept {
		for _, ns := range sl.lat {
			ms = append(ms, float64(ns)/1e6)
		}
	}
	res.set("ops_per_s", float64(len(ms))/(float64(len(kept))*slice.Seconds()), "1/s")
	res.set("cpu_us_per_op", float64(serverCPU.Microseconds())/float64(requests), "us")
	res.set("p50_ms", percentile(ms, 50), "ms")
	res.set("p99_ms", percentile(ms, 99), "ms")
	res.set("peak_rss_mb", median(rss), "MiB")
	res.set("setup_s", median(setup), "s")
	e.logf("samples: %d responses over %d servers; rate and latency from %d responses in %d of %d slices of %v (%d without steal); rps = ops_per_s, cpu_us_per_req = cpu_us_per_op; load generator cpu %.1f us/req",
		ok, predictServers, len(ms), len(kept), len(slices), slice.Round(time.Millisecond), quiet, float64(self.Microseconds())/float64(requests))
	return res, nil
}

// predictTraced is the traced run of predict-closed: the server layers
// under the full load window, then the serial layer rebuild of the
// reference campaign checked against the dataset the server wrote.
func predictTraced(e *env, seed int64, seconds float64) (*result, error) {
	res := newResult()
	digest, err := serverLayers(e, res, seed, seconds)
	if err != nil {
		return nil, err
	}
	if err := campaignLayers(e, res, referenceCampaign, seed, digest); err != nil {
		return nil, err
	}
	return res, nil
}

// serverLayers measures the serving layers on one deployment: set-up
// over HTTP, a closed-loop window with table swaps, the net/http floor
// (GET /healthz), and the handler itself through Server.ServeHTTP on
// in-memory writers in this process. It returns the digest of the
// reference campaign's dataset as the server wrote it.
func serverLayers(e *env, res *result, seed int64, seconds float64) (string, error) {
	res.set("trace.span_ns", emptySpanNS(), "ns")
	d, err := deploy(e, seed, filepath.Join(e.work, "serve-traced"))
	if err != nil {
		return "", err
	}
	digest, err := serverProbe(e, res, d, seed, seconds)
	if err != nil {
		d.srv.kill()
		return "", err
	}
	if _, err := d.srv.stop(); err != nil {
		return "", err
	}
	return digest, nil
}

func serverProbe(e *env, res *result, d *deployment, seed int64, seconds float64) (string, error) {
	res.set("server.campaign.ms", float64(d.campaign.Microseconds())/1e3, "ms")

	var train []float64
	var table *core.Table
	for i := 0; i < 3; i++ {
		t := time.Now()
		tb, err := trainLocal(d.dataset)
		if err != nil {
			return "", err
		}
		train = append(train, float64(time.Since(t).Microseconds())/1e3)
		table = tb
	}
	res.set("core.train.ms", median(train), "ms")

	bodies, err := loadBodies(e, seed, table, 1, bodiesPerClient)
	if err != nil {
		return "", err
	}
	memo := newResponseMemo()
	w, err := d.load(bodies, time.Duration(seconds*float64(time.Second)), memo)
	if err != nil {
		return "", err
	}
	res.Attempted += w.attempted
	res.Failed += w.failed
	if w.failed > 0 {
		res.Correct = false
	}
	res.set("server.tables.activate_ms", median(w.activateMS), "ms")
	res.set("server.tables.swaps", float64(w.swaps), "count")
	res.set("loadgen.cpu_us_per_req", float64(w.selfCPU.Microseconds())/float64(w.attempted), "us")

	// The net/http floor: sequential GET /healthz round trips.
	var rtt []float64
	for i := 0; i < 2000; i++ {
		t := time.Now()
		if err := d.call("GET", "/healthz", nil, http.StatusOK, nil); err != nil {
			return "", err
		}
		rtt = append(rtt, float64(time.Since(t).Nanoseconds())/1e3)
	}
	res.set("server.healthz_rtt_us", median(rtt), "us")

	// The handler in this process, serving the table the child trained
	// on campaign completion: same version, same bytes.
	srv, err := server.New(server.Options{Table: table, SBIST: sbist.NewConfig(table.Gran, nil, sbist.OnChipTableAccess)})
	if err != nil {
		return "", err
	}
	if v := srv.TableVersion(); v != d.v1 {
		res.fail(1, fmt.Errorf("table trained in process has version %s, the server trained %s", v, d.v1))
	}
	h := newHandlerProbe(srv)
	etag := `"` + d.v1 + `"`
	compared := 0
	for _, body := range bodies[0][:512] {
		got, err := h.serve(body)
		res.Attempted++
		if err != nil {
			res.fail(1, err)
			continue
		}
		if want, ok := memo.lookup(etag, body); ok {
			compared++
			if !bytes.Equal(got, want) {
				res.fail(1, fmt.Errorf("in-process handler answered %s with %q, the server %q", body, got, want))
			}
		}
	}
	if compared == 0 {
		res.fail(1, errors.New("no server response to compare the in-process handler with"))
	}
	nsReq, err := h.nsPerCall(bodies[0])
	if err != nil {
		return "", err
	}
	batch64, err := loadBodies(e, seed, table, 64, 256)
	if err != nil {
		return "", err
	}
	nsBatch, err := h.nsPerCall(batch64[0])
	if err != nil {
		return "", err
	}
	res.set("server.handler.ns_per_req", nsReq, "ns")
	res.set("server.handler.ns_per_dsr", nsBatch/64, "ns")
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		h.serve(bodies[0][i%len(bodies[0])])
		i++
	})
	res.set("server.handler.allocs_per_req", allocs, "allocs")
	pa, err := srv.PredictAllocsPerRun(bodies[0][0])
	if err != nil {
		return "", err
	}
	res.set("server.predict.allocs", pa, "allocs")
	e.logf("server layers: campaign %.1f ms, %d swaps, healthz %.1f us, handler %.0f ns/req, %.0f ns/dsr, %.1f allocs/req",
		float64(d.campaign.Microseconds())/1e3, w.swaps, median(rtt), nsReq, nsBatch/64, allocs)
	return sha(d.dataset), nil
}

// handlerProbe drives Server.ServeHTTP directly with one reusable
// request and an in-memory response writer, so what it measures is the
// server's handler and middleware without the network stack.
type handlerProbe struct {
	srv  *server.Server
	req  *http.Request
	body *bodyReader
	w    *memWriter
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

type memWriter struct {
	h    http.Header
	buf  bytes.Buffer
	code int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }

func newHandlerProbe(srv *server.Server) *handlerProbe {
	h := &handlerProbe{srv: srv, body: &bodyReader{}, w: &memWriter{h: http.Header{}}}
	h.req, _ = http.NewRequest("POST", "/v1/predict", nil)
	h.req.Body = h.body
	h.req.Header.Set("Content-Type", "application/json")
	return h
}

// serve runs one request through the handler and returns its body,
// which stays valid until the next call.
func (h *handlerProbe) serve(body []byte) ([]byte, error) {
	h.body.Reset(body)
	h.req.ContentLength = int64(len(body))
	for k := range h.w.h {
		delete(h.w.h, k)
	}
	h.w.buf.Reset()
	h.w.code = http.StatusOK
	h.srv.ServeHTTP(h.w, h.req)
	if h.w.code != http.StatusOK {
		return nil, fmt.Errorf("handler status %d for %s: %s", h.w.code, body, strings.TrimSpace(h.w.buf.String()))
	}
	return h.w.buf.Bytes(), nil
}

// nsPerCall is the median over five rounds of the mean handler time per
// request across bodies.
func (h *handlerProbe) nsPerCall(bodies [][]byte) (float64, error) {
	var rounds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for _, b := range bodies {
			if _, err := h.serve(b); err != nil {
				return 0, err
			}
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(len(bodies)))
	}
	return median(rounds), nil
}

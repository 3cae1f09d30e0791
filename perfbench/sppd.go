package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sspp"
	"sspp/internal/serve"
)

// sppd-mix runs sppd in this process on a loopback listener with a disk
// store and an LRU smaller than the working set, and drives it from two
// closed-loop clients.
const (
	sppdN           = 32
	sppdSeeds       = 3
	sppdWorkers     = 2  // the server's simulation pool
	sppdClients     = 2  // closed-loop clients, one connection each
	sppdWorkingSet  = 32 // working-set grids, four cells each
	sppdLRU         = 64 // LRU entries: half the working set's cells
	sppdSampleCells = 3  // cold cells per client re-computed apart from the server
	// checkpointEvery keeps a cold job at a few dozen SSE frames, far under
	// the server's 256-frame subscriber buffer, past which frames are
	// dropped (TestColdJobFrameBudget holds the workload to that).
	checkpointEvery = 16384
)

// The make-up of one client round: every round is the same ten operations
// in a seeded order, so each run attempts whole rounds of the same mix.
const (
	roundWarm = 6 // warm repeats of working-set grids
	roundSub  = 2 // overlapping two-cell sub-grids of working-set grids
	roundCold = 2 // cold grids: async submit, SSE to done, fetch
	roundOps  = roundWarm + roundSub + roundCold
)

var sppdAdversaries = []string{string(sspp.AdversaryTwoLeaders), string(sspp.AdversaryNoLeader)}

// sppdGrid is a four-cell grid: two points by two adversary classes.
func sppdGrid(baseSeed uint64) serve.GridSpec {
	return serve.GridSpec{
		Points:          []sspp.Point{{N: sppdN, R: 4}, {N: sppdN, R: 8}},
		Adversaries:     sppdAdversaries,
		Seeds:           sppdSeeds,
		BaseSeed:        baseSeed,
		CheckpointEvery: checkpointEvery,
	}
}

// subGrids are the four two-cell sub-grids of g: one point by both classes,
// or both points by one class. Each shares two cells with g and with two of
// the other sub-grids, and none is g.
func subGrids(g serve.GridSpec) [4]serve.GridSpec {
	var out [4]serve.GridSpec
	for i := range out {
		s := g
		switch i {
		case 0, 1:
			s.Points = g.Points[i : i+1]
		default:
			s.Adversaries = g.Adversaries[i-2 : i-1]
		}
		out[i] = s
	}
	return out
}

// cellHashes is the content address of every cell of g, in order, computed
// on the client side through the public decomposition.
func cellHashes(g serve.GridSpec) ([]string, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(cells))
	for i := range cells {
		out[i] = cells[i].Hash()
	}
	return out, nil
}

// sppdEnv is one running server with its filled store and the bytes
// recorded for every working-set grid and sub-grid.
type sppdEnv struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	base    string
	dir     string
	grids   []serve.GridSpec
	hashes  [][]string
	full    [][]byte
	sub     [][4][]byte
	cells   map[string][]byte // working-set cell bytes by content address
	clients []*http.Client
}

// newClient is one client connection. The timeout turns a request the
// server never finishes into a failed operation instead of a hung run.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// startSppd starts a server over a fresh store under dir and fills it with
// the working set of size grids, with two fillers on the two connections.
func startSppd(dir string, gen *splitmix64, size, lru int) (*sppdEnv, error) {
	srv, err := serve.NewServer(serve.Options{Workers: sppdWorkers, CacheEntries: lru, Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &sppdEnv{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String(), dir: dir, cells: make(map[string][]byte),
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < sppdClients; i++ {
		e.clients = append(e.clients, newClient())
	}
	for i := 0; i < size; i++ {
		g := sppdGrid(gen.next())
		h, err := cellHashes(g)
		if err != nil {
			e.close()
			return nil, err
		}
		e.grids, e.hashes = append(e.grids, g), append(e.hashes, h)
	}
	e.full = make([][]byte, size)
	e.sub = make([][4][]byte, size)
	errs := make([]error, sppdClients)
	var wg sync.WaitGroup
	for c := 0; c < sppdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = e.fill(c)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	for i := range e.grids {
		cells, err := gridCells(e.full[i])
		if err != nil {
			e.close()
			return nil, err
		}
		for _, c := range cells {
			e.cells[c.Hash] = c.raw
		}
	}
	return e, nil
}

// fill submits client c's share of the working set, then every sub-grid of
// it, recording the response bytes.
func (e *sppdEnv) fill(c int) error {
	for i := c; i < len(e.grids); i += sppdClients {
		b, _, err := postGrid(e.clients[c], e.base, e.grids[i], "")
		if err != nil {
			return err
		}
		if err := checkGridHashes(b, e.hashes[i]); err != nil {
			return err
		}
		e.full[i] = b
		for v, sg := range subGrids(e.grids[i]) {
			if e.sub[i][v], _, err = postGrid(e.clients[c], e.base, sg, ""); err != nil {
				return err
			}
		}
	}
	return nil
}

// close stops the server, waits for it, and removes its store.
func (e *sppdEnv) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	os.RemoveAll(e.dir)
}

// postGrid submits g; query is "" (wait for the result) or "?async=1".
func postGrid(c *http.Client, base string, g serve.GridSpec, query string) ([]byte, http.Header, error) {
	body, err := json.Marshal(g)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.Post(base+"/v1/grids"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	want := http.StatusOK
	if query != "" {
		want = http.StatusAccepted
	}
	return readBody(resp, want)
}

func get(c *http.Client, url string) ([]byte, http.Header, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	return readBody(resp, http.StatusOK)
}

func readBody(resp *http.Response, want int) ([]byte, http.Header, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, b)
	}
	return b, resp.Header, nil
}

// gridCell is one cell of a GridResult: its content address, its raw
// CellResult bytes and the sspp.Cell inside them.
type gridCell struct {
	Hash string          `json:"hash"`
	Cell json.RawMessage `json:"cell"`
	raw  []byte
}

func gridCells(body []byte) ([]gridCell, error) {
	var gr serve.GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		return nil, fmt.Errorf("grid result: %w", err)
	}
	out := make([]gridCell, len(gr.Cells))
	for i, raw := range gr.Cells {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("grid result cell %d: %w", i, err)
		}
		out[i].raw = raw
	}
	return out, nil
}

// checkGridHashes checks that a GridResult lists exactly the submitted
// cells' content addresses, in order.
func checkGridHashes(body []byte, want []string) error {
	cells, err := gridCells(body)
	if err != nil {
		return err
	}
	if len(cells) != len(want) {
		return fmt.Errorf("result has %d cells, submitted %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Hash != want[i] {
			return fmt.Errorf("result cell %d is %.12s, submitted %.12s", i, c.Hash, want[i])
		}
	}
	return nil
}

// cacheCounts parses X-Sppd-Cache ("computed=0 dedup=0 memory=3 disk=1").
func cacheCounts(h http.Header) map[string]int {
	out := map[string]int{}
	for _, f := range strings.Fields(h.Get("X-Sppd-Cache")) {
		var n int
		if k, v, ok := strings.Cut(f, "="); ok {
			fmt.Sscan(v, &n)
			out[k] = n
		}
	}
	return out
}

// coldCell is one cell a cold operation computed, sampled for the check
// made after the timed phase.
type coldCell struct {
	hash string
	cell json.RawMessage
	op   int
}

// sppdClient is one closed-loop client and what it measured.
type sppdClient struct {
	id    int
	env   *sppdEnv
	http  *http.Client
	gen   splitmix64
	tr    *tracer // nil in untraced runs
	ops   int
	fails map[int]error
	opMs  []float64
	rates []float64 // cold operations: simulated interactions per second
	// coldSeen holds the address of every cell this client submitted cold;
	// sample is a seeded uniform sample (a reservoir) of those cells.
	coldSeen map[string]bool
	sample   []coldCell
	// Read by the traced run only.
	frames, lags, respKB []float64
	memHits, diskHits    int
}

func (c *sppdClient) begin(name string) {
	if c.tr != nil {
		c.tr.begin(name, c.ops)
	}
}

func (c *sppdClient) end() {
	if c.tr != nil {
		c.tr.end()
	}
}

// round runs one round of the mix.
func (c *sppdClient) round() {
	kinds := make([]int, 0, roundOps)
	for k, n := range [...]int{roundWarm, roundSub, roundCold} {
		for i := 0; i < n; i++ {
			kinds = append(kinds, k)
		}
	}
	for i := len(kinds) - 1; i > 0; i-- {
		j := int(c.gen.next() % uint64(i+1))
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	for _, k := range kinds {
		var err error
		c.begin("op")
		switch k {
		case 0, 1:
			err = c.warm(k == 1)
		default:
			err = c.coldOp()
		}
		c.end()
		if err != nil {
			c.fails[c.ops] = err
		}
		c.ops++
	}
}

// pick is a skewed choice of working-set grid: grid i of W is drawn with
// probability ((i+1)/W)^{1/3} - (i/W)^{1/3}, so low-index grids stay hot in
// the LRU and the tail falls back to the disk store.
func (c *sppdClient) pick() int {
	u := c.gen.float()
	return int(float64(len(c.env.grids)) * u * u * u)
}

// warm repeats a working-set grid or one of its sub-grids; the response
// must be byte-identical to the bytes recorded during set-up and computed
// by nobody.
func (c *sppdClient) warm(sub bool) error {
	i := c.pick()
	g, want := c.env.grids[i], c.env.full[i]
	if sub {
		v := int(c.gen.next() % 4)
		g, want = subGrids(g)[v], c.env.sub[i][v]
	}
	t0 := now()
	c.begin("http")
	b, h, err := postGrid(c.http, c.env.base, g, "")
	c.end()
	c.opMs = append(c.opMs, msSince(t0))
	if err != nil {
		return err
	}
	counts := cacheCounts(h)
	c.memHits += counts["memory"]
	c.diskHits += counts["disk"]
	c.respKB = append(c.respKB, float64(len(b))/1024)
	if counts["computed"] != 0 {
		return fmt.Errorf("warm grid computed %d cells", counts["computed"])
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("warm response differs from the bytes recorded at set-up")
	}
	return nil
}

// coldOp submits a never-seen grid with ?async=1, reads its SSE stream to
// done, and fetches the result.
func (c *sppdClient) coldOp() error {
	g := sppdGrid(c.gen.next())
	want, err := cellHashes(g)
	if err != nil {
		return err
	}
	t0 := now()
	c.begin("submit")
	b, _, err := postGrid(c.http, c.env.base, g, "?async=1")
	c.end()
	if err != nil {
		c.opMs = append(c.opMs, msSince(t0))
		return err
	}
	var acc struct {
		Job   string   `json:"job"`
		Cells []string `json:"cells"`
	}
	if err := json.Unmarshal(b, &acc); err != nil {
		c.opMs = append(c.opMs, msSince(t0))
		return fmt.Errorf("async reply: %w", err)
	}
	c.begin("sse")
	ev, err := readEvents(c.http, c.env.base+"/v1/grids/"+acc.Job+"/events")
	c.end()
	if err != nil {
		c.opMs = append(c.opMs, msSince(t0))
		return err
	}
	c.begin("fetch")
	body, _, err := get(c.http, c.env.base+"/v1/grids/"+acc.Job)
	c.end()
	dt := now().Sub(t0)
	c.opMs = append(c.opMs, float64(dt)/float64(time.Millisecond))
	if err != nil {
		return err
	}
	c.frames = append(c.frames, float64(ev.frames))
	c.lags = append(c.lags, ev.doneLag.Seconds()*1000)
	c.respKB = append(c.respKB, float64(len(body))/1024)

	if strings.Join(acc.Cells, ",") != strings.Join(want, ",") {
		return fmt.Errorf("async reply lists cells %v, submitted %v", acc.Cells, want)
	}
	if ev.cells != len(want) || ev.done != 1 || ev.errors != 0 {
		return fmt.Errorf("SSE stream carried %d cell, %d done and %d error frames for %d cells",
			ev.cells, ev.done, ev.errors, len(want))
	}
	if err := checkGridHashes(body, want); err != nil {
		return err
	}
	cells, _ := gridCells(body)
	var inter float64
	for _, cl := range cells {
		var cell sspp.Cell
		if err := json.Unmarshal(cl.Cell, &cell); err != nil {
			return err
		}
		for _, s := range cell.Samples {
			inter += s
		}
		c.keep(coldCell{hash: cl.Hash, cell: cl.Cell, op: c.ops})
	}
	c.rates = append(c.rates, inter/dt.Seconds())
	return nil
}

// keep records a cold cell and keeps a uniform sample of sppdSampleCells
// of them, so the client's memory does not grow with the run.
func (c *sppdClient) keep(cc coldCell) {
	c.coldSeen[cc.hash] = true
	if len(c.sample) < sppdSampleCells {
		c.sample = append(c.sample, cc)
	} else if i := c.gen.next() % uint64(len(c.coldSeen)); i < sppdSampleCells {
		c.sample[i] = cc
	}
}

func msSince(t0 time.Time) float64 { return float64(now().Sub(t0)) / float64(time.Millisecond) }

// sseStream is what one job's event stream carried.
type sseStream struct {
	frames, cells, done, errors int
	doneLag                     time.Duration // from the last cell frame to done
}

// readEvents reads an SSE stream to its end (the server closes it after the
// terminal frame).
func readEvents(c *http.Client, url string) (sseStream, error) {
	var s sseStream
	resp, err := c.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var lastCell time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		s.frames++
		switch name {
		case "cell":
			s.cells++
			lastCell = now()
		case "done":
			s.done++
			s.doneLag = now().Sub(lastCell)
		case "error":
			s.errors++
		}
	}
	return s, sc.Err()
}

// sppdRun is the outcome of one timed mix.
type sppdRun struct {
	clients []*sppdClient
	timed   time.Duration
	correct bool
}

// mix drives env from both clients for d, in whole rounds, then checks each
// client's sample of cold cells against one-cell Ensembles computed apart
// from the server, and the server's computed-cell count against the cells
// submitted cold.
func mix(env *sppdEnv, gen *splitmix64, d time.Duration, tracers []*tracer) *sppdRun {
	r := &sppdRun{correct: true}
	for i := 0; i < sppdClients; i++ {
		c := &sppdClient{id: i, env: env, http: env.clients[i], gen: splitmix64(gen.next()),
			fails: map[int]error{}, coldSeen: map[string]bool{}}
		if tracers != nil {
			c.tr = tracers[i]
		}
		r.clients = append(r.clients, c)
	}
	start := now()
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *sppdClient) {
			defer wg.Done()
			for now().Sub(start) < d {
				c.round()
			}
		}(c)
	}
	wg.Wait()
	r.timed = now().Sub(start)

	// Cold base seeds are independent 64-bit draws, so the clients' cold
	// cells and the working set are disjoint.
	distinct := len(env.cells)
	for _, c := range r.clients {
		distinct += len(c.coldSeen)
		for _, cc := range c.sample {
			if err := checkColdCell(env, cc); err != nil {
				c.fails[cc.op] = err
			}
		}
	}
	b, _, err := get(env.clients[0], env.base+"/v1/stats")
	var st struct {
		Computed int `json:"cells_computed"`
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	if err != nil || st.Computed != distinct {
		fmt.Fprintf(os.Stderr, "sppd computed %d cells for %d distinct cells submitted cold (%v)\n", st.Computed, distinct, err)
		r.correct = false
	}
	for _, c := range r.clients {
		ops := make([]int, 0, len(c.fails))
		for op := range c.fails {
			ops = append(ops, op)
		}
		sort.Ints(ops)
		for _, op := range ops {
			fmt.Fprintf(os.Stderr, "client %d operation %d failed: %v\n", c.id, op, c.fails[op])
		}
	}
	return r
}

// cellGrid is the one-cell sspp.Grid of a cell of a grid built by sppdGrid,
// with every axis explicit, as the server stamps the cells it caches.
func cellGrid(spec serve.CellSpec) sspp.Grid {
	return sspp.Grid{
		Protocols:   []string{spec.Protocol},
		Topologies:  []sspp.Topology{sspp.Complete()},
		Clocks:      []string{spec.Clock},
		Points:      []sspp.Point{spec.Point},
		Adversaries: []sspp.Adversary{sspp.Adversary(spec.Adversary)},
		Seeds:       spec.Seeds,
		BaseSeed:    spec.BaseSeed,
		Backend:     spec.Backend,
	}
}

// checkColdCell re-computes a cold cell as a one-cell Ensemble outside the
// server and compares it with what the server returned.
func checkColdCell(env *sppdEnv, cc coldCell) error {
	var cr struct {
		Spec serve.CellSpec `json:"spec"`
	}
	b, _, err := get(env.clients[0], env.base+"/v1/cells/"+cc.hash)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &cr); err != nil {
		return err
	}
	if cr.Spec.Hash() != cc.hash {
		return fmt.Errorf("cell %.12s: served spec hashes to %.12s", cc.hash, cr.Spec.Hash())
	}
	ens, err := sspp.NewEnsemble(cellGrid(cr.Spec), sspp.Workers(1))
	if err != nil {
		return err
	}
	want, err := json.Marshal(ens.Run().Cells[0])
	if err != nil {
		return err
	}
	if !bytes.Equal(want, cc.cell) {
		return fmt.Errorf("cell %.12s differs from the one-cell Ensemble computed apart", cc.hash)
	}
	return nil
}

// storeDir is a fresh store directory for one server of this process.
func storeDir(rep int) string {
	return filepath.Join(workDir, "sppd", fmt.Sprintf("%d-%d", os.Getpid(), rep))
}

// setupSppd starts and fills a server reps times, each over a fresh store,
// and returns the set-up times and the last server. Every repetition must
// record the same bytes for the working set.
func setupSppd(seed uint64, reps, size, lru int) (env *sppdEnv, setup []float64, err error) {
	for rep := 0; rep < reps; rep++ {
		gen := splitmix64(seed)
		t0 := now()
		next, err := startSppd(storeDir(rep), &gen, size, lru)
		if err != nil {
			if env != nil {
				env.close()
			}
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, now().Sub(t0).Seconds())
		if env != nil {
			same := true
			for i := range env.full {
				same = same && bytes.Equal(env.full[i], next.full[i])
			}
			env.close()
			if !same {
				next.close()
				return nil, nil, fmt.Errorf("set-up: two servers returned different bytes for the same grid")
			}
		}
		env = next
	}
	return env, setup, nil
}

// runSppd is sppd-mix.
func runSppd(seed uint64, d time.Duration) (*runStats, error) {
	env, setup, err := setupSppd(seed, setupReps, sppdWorkingSet, sppdLRU)
	if err != nil {
		return nil, err
	}
	defer env.close()
	gen := splitmix64(^seed)
	r := mix(env, &gen, d, nil)
	st := &runStats{setup: setup, timed: r.timed, correct: r.correct}
	for _, c := range r.clients {
		st.attempted += c.ops
		st.failed += len(c.fails)
		st.opMs = append(st.opMs, c.opMs...)
		st.rates = append(st.rates, c.rates...)
	}
	return st, nil
}

// traceSppd is the traced serve group: the mix with spans around each
// client call, then the layer probes, one at a time on one goroutine. As a
// probe (home false) it runs against a quarter of the working set.
func traceSppd(l *ledger, seed uint64, d time.Duration, home bool) (map[string]float64, error) {
	size, lru := sppdWorkingSet, sppdLRU
	if !home {
		size, lru = sppdWorkingSet/4, sppdLRU/4
	}
	env, _, err := setupSppd(seed, 1, size, lru)
	if err != nil {
		return nil, err
	}
	defer env.close()
	gen := splitmix64(^seed)
	tracers := []*tracer{l.newTracer("sppd-client-0"), l.newTracer("sppd-client-1")}
	r := mix(env, &gen, d, tracers)
	l.correct = l.correct && r.correct
	var frames, lags, respKB []float64
	var mem, disk int
	for _, c := range r.clients {
		l.attempted += c.ops
		l.failed += len(c.fails)
		frames, lags, respKB = append(frames, c.frames...), append(lags, c.lags...), append(respKB, c.respKB...)
		mem, disk = mem+c.memHits, disk+c.diskHits
	}
	v := map[string]float64{
		"serve.sse_frames_per_op": median(frames),
		"serve.sse_done_lag_ms":   median(lags),
		"serve.response_kb":       median(respKB),
		"serve.memory_hit_ratio":  100 * float64(mem) / float64(mem+disk),
		"serve.disk_hit_ratio":    100 * float64(disk) / float64(mem+disk),
	}
	p := &serveProbe{l: l, env: env, tr: l.newTracer("sppd-ledger"), gen: splitmix64(gen.next())}
	for _, step := range []func(map[string]float64) error{p.decodeAndHash, p.handlerAndHTTP, p.diskRead, p.coldCells, p.dedupFlood} {
		if err := step(v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// serveProbe measures the serve layers one call at a time.
type serveProbe struct {
	l   *ledger
	env *sppdEnv
	tr  *tracer
	gen splitmix64
	op  int
}

// decodeAndHash times GridSpec decoding plus Cells, and CellSpec.Hash, on
// every working-set grid.
func (p *serveProbe) decodeAndHash(v map[string]float64) error {
	var dec, hash []float64
	for rep := 0; rep < 5; rep++ {
		for _, g := range p.env.grids {
			body, err := json.Marshal(g)
			if err != nil {
				return err
			}
			t0 := now()
			var spec serve.GridSpec
			if err := json.Unmarshal(body, &spec); err != nil {
				return err
			}
			cells, err := spec.Cells()
			if err != nil {
				return err
			}
			dec = append(dec, float64(now().Sub(t0))/1e3)
			for i := range cells {
				t0 := now()
				h := cells[i].Hash()
				hash = append(hash, float64(now().Sub(t0))/1e3)
				if p.env.cells[h] == nil {
					return fmt.Errorf("decoded cell %.12s is not in the working set", h)
				}
			}
		}
	}
	v["serve.decode_us"], v["serve.hash_us_per_cell"] = median(dec), median(hash)
	return nil
}

// handlerAndHTTP times a warm grid through Handler().ServeHTTP on a
// recorder, and through loopback HTTP with and without a span around the
// call, interleaved.
func (p *serveProbe) handlerAndHTTP(v map[string]float64) error {
	h := p.env.srv.Handler()
	g, want := p.env.grids[0], p.env.full[0]
	body, err := json.Marshal(g)
	if err != nil {
		return err
	}
	var handler, plain, traced []float64
	for k := 0; k < 200; k++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/grids", bytes.NewReader(body))
		t0 := now()
		h.ServeHTTP(rec, req)
		handler = append(handler, float64(now().Sub(t0))/1e3)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			return fmt.Errorf("handler response differs from the bytes recorded at set-up")
		}
		t0 = now()
		if k%2 == 1 {
			p.tr.begin("http", p.op)
		}
		b, _, err := postGrid(p.env.clients[0], p.env.base, g, "")
		if k%2 == 1 {
			p.tr.end()
			traced = append(traced, float64(now().Sub(t0))/1e3)
		} else {
			plain = append(plain, float64(now().Sub(t0))/1e3)
		}
		p.l.done(p.op, err)
		p.op++
		if err == nil && !bytes.Equal(b, want) {
			return fmt.Errorf("warm response differs from the bytes recorded at set-up")
		}
	}
	v["serve.handler_us_warm"] = median(handler)
	v["serve.http_us"] = median(plain) - median(handler)
	v["trace.overhead_share"] = 100 * (median(traced) - median(plain)) / median(plain)
	return nil
}

// diskRead restarts a server over the same store and times the first
// GET /v1/cells/{hash} of working-set cells, each a disk read.
func (p *serveProbe) diskRead(v map[string]float64) error {
	srv, err := serve.NewServer(serve.Options{Workers: 1, Dir: p.env.dir})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var reads []float64
	for _, hashes := range p.env.hashes {
		for _, hash := range hashes {
			rec := httptest.NewRecorder()
			t0 := now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cells/"+hash, nil))
			reads = append(reads, float64(now().Sub(t0))/1e3)
			if got := rec.Header().Get("X-Sppd-Cache"); got != "disk" || !bytes.Equal(rec.Body.Bytes(), p.env.cells[hash]) {
				return fmt.Errorf("restarted server served cell %.12s from %q with other bytes", hash, got)
			}
		}
	}
	v["serve.disk_read_us"] = median(reads)
	return nil
}

// coldCells computes one-cell grids apart from the server (NewEnsemble with
// Workers(1), then EnsembleResult.JSON), then submits each to the server,
// which has never seen it: the compute share is the first time over the
// second.
func (p *serveProbe) coldCells(v map[string]float64) error {
	var ens, js, cold, share []float64
	for k := 0; k < 8; k++ {
		g := sppdGrid(p.gen.next())
		g.Points, g.Adversaries, g.CheckpointEvery = g.Points[k%2:k%2+1], g.Adversaries[k/2%2:k/2%2+1], 0
		cells, err := g.Cells()
		if err != nil {
			return err
		}
		t0 := now()
		e, err := sspp.NewEnsemble(cellGrid(cells[0]), sspp.Workers(1))
		if err != nil {
			return err
		}
		res := e.Run()
		ensDt := now().Sub(t0)
		t0 = now()
		if _, err := res.JSON(); err != nil {
			return err
		}
		js = append(js, float64(now().Sub(t0))/1e3)
		want, err := json.Marshal(res.Cells[0])
		if err != nil {
			return err
		}
		t0 = now()
		p.tr.begin("cold", p.op)
		b, _, err := postGrid(p.env.clients[0], p.env.base, g, "")
		p.tr.end()
		coldDt := now().Sub(t0)
		if err == nil {
			var got []gridCell
			if got, err = gridCells(b); err == nil && (len(got) != 1 || !bytes.Equal(got[0].Cell, want)) {
				err = fmt.Errorf("served cold cell differs from the one-cell Ensemble computed apart")
			}
		}
		p.l.done(p.op, err)
		p.op++
		ens = append(ens, float64(ensDt)/1e6)
		cold = append(cold, float64(coldDt)/1e6)
		share = append(share, 100*ensDt.Seconds()/coldDt.Seconds())
	}
	v["ensemble.ms_per_cell"], v["ensemble.json_us_per_cell"] = median(ens), median(js)
	v["serve.cold_ms_per_cell"], v["serve.compute_share_cold"] = median(cold), median(share)
	return nil
}

// dedupFlood submits one never-seen cell from eight goroutines at once
// through the handler: singleflight must compute it once.
func (p *serveProbe) dedupFlood(v map[string]float64) error {
	const flood = 8
	g := sppdGrid(p.gen.next())
	g.Points, g.Adversaries, g.CheckpointEvery = g.Points[:1], g.Adversaries[:1], 0
	body, err := json.Marshal(g)
	if err != nil {
		return err
	}
	computed := func() (int, error) {
		rec := httptest.NewRecorder()
		p.env.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st struct {
			Computed int `json:"cells_computed"`
		}
		return st.Computed, json.Unmarshal(rec.Body.Bytes(), &st)
	}
	before, err := computed()
	if err != nil {
		return err
	}
	h := p.env.srv.Handler()
	bodies := make([][]byte, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grids", bytes.NewReader(body)))
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	after, err := computed()
	if err != nil {
		return err
	}
	for i := 1; i < flood && err == nil; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			err = fmt.Errorf("identical concurrent submissions got different bytes")
		}
	}
	p.l.done(p.op, err)
	p.op++
	v["serve.dedup_computed"] = float64(after - before)
	return nil
}

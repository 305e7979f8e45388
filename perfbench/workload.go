package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// Workload names; later changes cite them.
const (
	firstView   = "first-view"
	repeatView  = "repeat-view"
	albumUpload = "album-upload"
)

var workloads = []string{firstView, repeatView, albumUpload}

// tailQ is the tail percentile reported end to end: the highest of the
// usual ones that a run's sample count supports with minBeyond samples
// beyond it.
const tailQ = 0.90

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // timed time over all rounds (repeat-view, album-upload)
	trace    bool
	conns    int
	rounds   int // set-up + timed phase rounds; setup_s is their median
	photos   int // corpus photos per round (view workloads) or pool size (album-upload)
	minOps   int // time-based phases run until at least this many ops in all
	maxPhase time.Duration
	start    startFunc
}

// defaultConfig sizes a workload. A run is several rounds, each a fresh
// stack set up and then timed: set-up is measured once per round without
// set-up work that the timed phase does not use. first-view is fixed work —
// three rounds of 16 photos, about 60 requests each — and its phase ends
// with its feed; the other two share the given time between the rounds and
// run until the tail percentile has its samples. repeat-view's cache hits
// take about 0.1 ms and its rounds differ most, so it runs six rounds of a
// small corpus.
func defaultConfig(workload string, seed int64, seconds float64, trace bool, conns int) config {
	c := config{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		conns:    conns,
		rounds:   3,
		minOps:   minSamplesFor(tailQ),
		maxPhase: 40 * time.Second,
		start:    startProcess,
	}
	switch workload {
	case firstView:
		c.photos = 16
	case repeatView:
		c.rounds, c.photos = 6, 6
	case albumUpload:
		c.photos = 48
	}
	return c
}

// deployment is one round's stack with its corpus.
type deployment struct {
	srv  *serverConn
	ids  map[int]string // proxy photo id by original index (view workloads)
	warm map[int][]byte // warm-up response by key index (repeat-view)
}

// timedOp records what one timed operation produced, for the checks run
// after the phase.
type timedOp struct {
	ran   bool
	round int
	key   int    // feed position (first-view) or pool index (album-upload)
	id    string // uploaded photo id (album-upload)
	body  []byte // response kept for checks
	err   error
}

// round is one set-up and timed phase.
type round struct {
	dep    *deployment
	keys   []int // feed positions (first-view) or key indexes (repeat-view) of the round
	setupS float64
	phase  phaseReport
	final  finalReport
	res    []opResult
	el     time.Duration
}

// runState carries one run from inputs to report.
type runState struct {
	cfg    config
	cli    *client
	origs  []original
	feed   []viewKey // first-view feed or repeat-view keys
	rounds []*round
	ops    []timedOp // first-view and album-upload, by operation index
	checks []string  // failed run-level checks
	replay *replayStats

	mu       sync.Mutex
	failures []error // first failed repeat-view operations
}

func (r *runState) failCheck(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// run executes one run of a workload: inputs, the rounds, the output checks
// and the measurements.
func run(cfg config) (*report, error) {
	n := cfg.photos
	if cfg.workload != albumUpload {
		n *= cfg.rounds
	}
	origs, err := makeOriginals(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	r := &runState{cfg: cfg, cli: newClient(cfg.conns, cfg.trace), origs: origs}
	switch cfg.workload {
	case firstView:
		r.feed = firstViewFeed(cfg.seed, origs)
		r.ops = make([]timedOp, len(r.feed))
	case repeatView:
		r.feed = repeatViewKeys(cfg.seed, origs, cfg.photos)
	case albumUpload:
		r.ops = make([]timedOp, 1<<14) // far above what maxPhase allows
	}
	opBase := 0
	for k := 0; k < cfg.rounds; k++ {
		rd := &round{}
		for i, key := range r.feed {
			if key.photo/cfg.photos == k {
				rd.keys = append(rd.keys, i)
			}
		}
		start := time.Now()
		rd.dep, err = r.setup(k, rd)
		if err != nil {
			return nil, err
		}
		rd.setupS = time.Since(start).Seconds()
		r.rounds = append(r.rounds, rd)
		err := r.timedRound(k, rd, opBase)
		if err == nil {
			err = r.checkRound(rd)
		}
		if err == nil && cfg.trace && k == cfg.rounds-1 {
			r.replay, err = replay(rd.dep.srv.ready.PSP, r.replayTargets(rd))
		}
		if err == nil {
			err = rd.dep.srv.call("finish", &rd.final)
		}
		if cerr := rd.dep.srv.close(); err == nil && cerr != nil {
			err = fmt.Errorf("round %d server shutdown: %w", k, cerr)
		}
		if err != nil {
			return nil, err
		}
		opBase += len(rd.res)
	}
	return r.finish()
}

// setup builds a round's stack and, for the view workloads, uploads the
// round's corpus through the uploader proxy; repeat-view then views every
// key once.
func (r *runState) setup(k int, rd *round) (*deployment, error) {
	srv, err := r.cfg.start(r.cfg.workload, dataDir(k))
	if err != nil {
		return nil, err
	}
	dep := &deployment{srv: srv, ids: map[int]string{}, warm: map[int][]byte{}}
	ok := false
	defer func() {
		if !ok {
			srv.close()
		}
	}()
	if r.cfg.workload == albumUpload {
		ok = true
		return dep, nil
	}
	first := k * r.cfg.photos
	ids := make([]string, r.cfg.photos)
	errs := make([]error, r.cfg.photos)
	forEach(r.cfg.conns, r.cfg.photos, func(i int, buf *bytes.Buffer) (bool, bool) {
		status, err := r.cli.do(http.MethodPost, srv.ready.Uploader+"/upload", r.origs[first+i].jpeg, buf, true, "setup")
		if err == nil {
			ids[i], err = uploadID(status, buf.Bytes())
		}
		errs[i] = err
		return err != nil, true
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("set-up upload: %w", err)
		}
		dep.ids[first+i] = ids[i]
	}
	if r.cfg.workload == repeatView {
		warm := make([][]byte, len(rd.keys))
		errs = make([]error, len(rd.keys))
		forEach(r.cfg.conns, len(rd.keys), func(i int, buf *bytes.Buffer) (bool, bool) {
			errs[i] = r.view(dep, r.feed[rd.keys[i]], buf, true, "setup")
			warm[i] = bytes.Clone(buf.Bytes())
			return errs[i] != nil, true
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			dep.warm[rd.keys[i]] = warm[i]
		}
	}
	ok = true
	return dep, nil
}

// view requests one rendition through a round's proxy into buf and checks
// the status and the JPEG's dimensions.
func (r *runState) view(dep *deployment, k viewKey, buf *bytes.Buffer, traced bool, phase string) error {
	return r.viewID(dep.srv.ready.Proxy, dep.ids[k.photo], k.v, buf, traced, phase)
}

// viewID is view for the proxy at proxyURL and a photo id.
func (r *runState) viewID(proxyURL, id string, v variant, buf *bytes.Buffer, traced bool, phase string) error {
	url := proxyURL + "/photo/" + id + "?" + v.query()
	status, err := r.cli.do(http.MethodGet, url, nil, buf, traced, phase)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %.200s", url, status, buf.Bytes())
	}
	if err := checkJPEG(buf.Bytes(), v.wantW, v.wantH); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// timedRound runs one round's closed loop between the server's start and
// stop marks. Operation indexes continue across rounds from opBase, so
// album-upload walks its pool as one sequence. In a traced run every other
// request is traced, so the untraced half measures the tracing overhead
// under the same load.
func (r *runState) timedRound(k int, rd *round, opBase int) error {
	cfg, dep := r.cfg, rd.dep
	if err := dep.srv.call("start", &struct{}{}); err != nil {
		return err
	}
	share := time.Duration(cfg.seconds * float64(time.Second) / float64(cfg.rounds))
	minOps := int64((cfg.minOps + cfg.rounds - 1) / cfg.rounds)
	maxOps := math.MaxInt
	if r.ops != nil {
		maxOps = len(r.ops) - opBase
	}
	timed := func(i int, done int64, el time.Duration) bool {
		return i < maxOps && el < cfg.maxPhase && (el < share || done < minOps)
	}
	var more func(i int, done int64, el time.Duration) bool
	var op func(i int, buf *bytes.Buffer) (bool, bool)
	switch cfg.workload {
	case firstView:
		more = func(i int, _ int64, _ time.Duration) bool { return i < len(rd.keys) }
		op = func(i int, buf *bytes.Buffer) (bool, bool) {
			traced, p := i%2 == 0, rd.keys[i]
			err := r.view(dep, r.feed[p], buf, traced, "timed")
			r.ops[p] = timedOp{ran: true, round: k, key: p, body: bytes.Clone(buf.Bytes()), err: err}
			return err != nil, traced
		}
	case repeatView:
		// Timed views are too many to keep; only failures are recorded.
		zipf := newZipfSeq(cfg.seed+int64(k), len(rd.keys))
		more = timed
		op = func(i int, buf *bytes.Buffer) (bool, bool) {
			traced, p := i%2 == 0, rd.keys[zipf.next()]
			err := r.view(dep, r.feed[p], buf, traced, "timed")
			if warm := dep.warm[p]; err == nil && buf.Len() != len(warm) {
				err = fmt.Errorf("key %d: %d bytes, warm-up served %d", p, buf.Len(), len(warm))
			}
			if err != nil {
				r.noteFailure(err)
			}
			return err != nil, traced
		}
	case albumUpload:
		more = timed
		op = func(i int, buf *bytes.Buffer) (bool, bool) {
			traced, p := i%2 == 0, (opBase+i)%len(r.origs)
			status, err := r.cli.do(http.MethodPost, dep.srv.ready.Proxy+"/upload", r.origs[p].jpeg, buf, traced, "timed")
			var id string
			if err == nil {
				id, err = uploadID(status, buf.Bytes())
			}
			r.ops[opBase+i] = timedOp{ran: true, round: k, key: p, id: id, err: err}
			return err != nil, traced
		}
	}
	rd.res, rd.el = loop(cfg.conns, more, op)
	return dep.srv.call("stop", &rd.phase)
}

// noteFailure keeps the first few failed repeat-view operations.
func (r *runState) noteFailure(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err)
	}
}

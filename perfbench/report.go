package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // sample counts and provenance, for the text report
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	checks            []string // failed run-level checks
	failures          []string // first failed operations
	metrics           []metric
	// det holds the metrics that are a function of the seed alone.
	det map[string]float64
}

func (rep *report) add(name, unit string, v float64, note string) {
	rep.metrics = append(rep.metrics, metric{name, unit, v, note})
}

func (rep *report) correct() bool { return rep.failed == 0 && len(rep.checks) == 0 }

// checkRound runs the checks that need the round's server: every id
// album-upload uploaded must then serve its thumbnail through a recipient
// proxy.
func (r *runState) checkRound(rd *round) error {
	if r.cfg.workload != albumUpload {
		return nil
	}
	var recipient struct {
		URL string `json:"url"`
	}
	if err := rd.dep.srv.call("recipient", &recipient); err != nil {
		return err
	}
	var idx []int
	for i, o := range r.ops {
		if o.ran && o.err == nil && o.round == len(r.rounds)-1 {
			idx = append(idx, i)
		}
	}
	forEach(r.cfg.conns, len(idx), func(j int, buf *bytes.Buffer) (bool, bool) {
		o := &r.ops[idx[j]]
		orig := r.origs[o.key]
		v := staticVariant(0, orig.w, orig.h)
		err := r.viewID(recipient.URL, o.id, v, buf, true, "check")
		if err == nil {
			err = checkDecode(buf.Bytes(), v.wantW, v.wantH)
		}
		if err != nil {
			o.err = fmt.Errorf("thumb of %s: %w", o.id, err)
		}
		o.body = bytes.Clone(buf.Bytes())
		return err != nil, true
	})
	return nil
}

// firstPass is album-upload's first pass over its pool: the same uploads
// on every run of a seed.
func (r *runState) firstPass() []timedOp {
	return r.ops[:min(len(r.origs), len(r.ops))]
}

// replayTargets samples the last round's own inputs for the replay;
// crops are left out, as the replayed join maps the full frame.
func (r *runState) replayTargets(rd *round) []replayTarget {
	var out []replayTarget
	add := func(orig original, id string, v variant) {
		if v.crop == nil && len(out) < replaySample {
			out = append(out, replayTarget{orig.jpeg, id, v})
		}
	}
	if r.cfg.workload == albumUpload {
		for _, o := range r.ops {
			if o.ran && o.err == nil && o.round == len(r.rounds)-1 {
				orig := r.origs[o.key]
				add(orig, o.id, staticVariant(0, orig.w, orig.h))
			}
		}
		return out
	}
	for _, j := range sample(r.cfg.seed, len(rd.keys), len(rd.keys)) {
		k := r.feed[rd.keys[j]]
		add(r.origs[k.photo], rd.dep.ids[k.photo], k.v)
	}
	return out
}

// finish runs the remaining output checks and the quality measurements,
// and computes the run's metrics.
func (r *runState) finish() (*report, error) {
	cfg := r.cfg
	rep := &report{det: map[string]float64{}}
	var res []opResult
	var ph phaseReport
	for _, rd := range r.rounds {
		res = append(res, rd.res...)
		ph = ph.add(rd.phase)
	}
	rep.attempted = len(res)
	var recon []reconTarget
	var sizeRounds []int // round of each upload the size ratio covers
	var sizeIDs []string
	var sizeOrigs []original

	switch cfg.workload {
	case firstView:
		for i := range r.ops {
			if o := &r.ops[i]; o.err == nil {
				k := r.feed[o.key]
				o.err = checkDecode(o.body, k.v.wantW, k.v.wantH)
			}
		}
		if v := ph.Variants; ratio(float64(v.Hits), float64(v.Hits+v.Misses+v.Coalesced)) > 0.01 {
			r.failCheck("first-view variant hit ratio %d/%d, want about 0", v.Hits, v.Hits+v.Misses+v.Coalesced)
		}
		for _, p := range sample(cfg.seed, len(r.ops), reconSample) {
			if o := r.ops[p]; o.err == nil {
				k := r.feed[o.key]
				recon = append(recon, reconTarget{r.origs[k.photo].jpeg, k.v, o.body})
			}
		}
	case repeatView:
		for _, rd := range r.rounds {
			for p, b := range rd.dep.warm {
				if err := checkDecode(b, r.feed[p].v.wantW, r.feed[p].v.wantH); err != nil {
					r.failCheck("warm-up view of key %d: %v", p, err)
				}
			}
			if v := rd.phase.Variants; v.Misses != 0 || v.Coalesced != 0 || v.Hits < uint64(len(rd.res)) {
				r.failCheck("repeat-view timed hit ratio: %d hits, %d misses, %d coalesced over %d views, want all hits",
					v.Hits, v.Misses, v.Coalesced, len(rd.res))
			}
		}
		for _, p := range sample(cfg.seed, len(r.feed), reconSample) {
			k := r.feed[p]
			warm := r.rounds[k.photo/cfg.photos].dep.warm[p]
			recon = append(recon, reconTarget{r.origs[k.photo].jpeg, k.v, warm})
		}
	case albumUpload:
		fp := r.firstPass()
		for _, o := range fp {
			sizeRounds, sizeIDs, sizeOrigs = append(sizeRounds, o.round), append(sizeIDs, o.id), append(sizeOrigs, r.origs[o.key])
		}
		for _, p := range sample(cfg.seed, len(fp), reconSample) {
			if o := fp[p]; o.err == nil {
				orig := r.origs[o.key]
				recon = append(recon, reconTarget{orig.jpeg, staticVariant(0, orig.w, orig.h), o.body})
			}
		}
	}
	if cfg.workload != albumUpload {
		for k, rd := range r.rounds {
			for i, id := range rd.dep.ids {
				sizeRounds, sizeIDs, sizeOrigs = append(sizeRounds, k), append(sizeIDs, id), append(sizeOrigs, r.origs[i])
			}
		}
	}
	if cfg.workload == repeatView {
		for _, res := range res {
			if res.failed {
				rep.failed++
			}
		}
		for _, err := range r.failures {
			rep.failures = append(rep.failures, err.Error())
		}
	} else {
		// Checks after the phase can fail operations that completed.
		for _, o := range r.ops {
			if o.ran && o.err != nil {
				rep.failed++
				if len(rep.failures) < 10 {
					rep.failures = append(rep.failures, o.err.Error())
				}
			}
		}
	}

	// Quality: fidelity restored and privacy kept.
	recPSNR, err := reconPSNR(recon, cfg.conns)
	if err != nil {
		return nil, err
	}
	for i, p := range recPSNR {
		if p < reconFloorDB {
			r.failCheck("reconstruction %d of %s: PSNR %.2f dB, floor %d dB", i, recon[i].v.query(), p, reconFloorDB)
		}
	}
	var all [][]byte
	for _, o := range r.origs {
		all = append(all, o.jpeg)
	}
	pubPSNR, err := publicPSNR(all, cfg.conns)
	if err != nil {
		return nil, err
	}
	var origBytes, storedBytes float64
	for i, id := range sizeIDs {
		f := r.rounds[sizeRounds[i]].final
		pub, okP := f.PubSize[id]
		sec, okS := f.SecSize[id]
		if !okP || !okS {
			r.failCheck("upload %s: no public or secret part recorded", id)
		}
		origBytes += float64(len(sizeOrigs[i].jpeg))
		storedBytes += float64(pub + sec)
	}

	rep.det["recon_psnr_db"] = mean(recPSNR)
	rep.det["public_psnr_db"] = mean(pubPSNR)
	rep.det["upload_size_ratio"] = ratio(storedBytes, origBytes)
	rep.det["store.get_count"] = float64(ph.Get.Calls)
	rep.det["cache.variants.misses"] = float64(ph.Variants.Misses)
	rep.det["cache.secrets.misses"] = float64(ph.Secrets.Misses)
	rep.det["psp.fetch_count"] = float64(ph.Fetch.Calls)

	if cfg.trace {
		if err := r.layerMetrics(rep, res, ph); err != nil {
			return nil, err
		}
	} else {
		r.endToEndMetrics(rep, res, recPSNR, pubPSNR)
	}
	rep.checks = r.checks
	return rep, nil
}

// endToEndMetrics are what a user of the proxy sees, from an untraced run.
func (r *runState) endToEndMetrics(rep *report, res []opResult, recPSNR, pubPSNR []float64) {
	lats := make([]time.Duration, 0, len(res))
	for _, o := range res {
		lats = append(lats, o.lat)
	}
	op := map[string]string{firstView: "GET /photo", repeatView: "GET /photo", albumUpload: "POST /upload"}[r.cfg.workload]
	n := len(lats)
	p50, ok50 := percentile(lats, 0.5, minBeyond)
	pT, okT := percentile(lats, tailQ, minBeyond)
	support := func(ok bool) string {
		if ok {
			return ""
		}
		return fmt.Sprintf("; UNSUPPORTED: fewer than %d samples beyond", minBeyond)
	}
	var el time.Duration
	var setups, peaks []float64
	var f finalReport
	samples := 0
	for _, rd := range r.rounds {
		samples += rd.phase.HeapSamples
		el += rd.el
		setups = append(setups, rd.setupS)
		peaks = append(peaks, float64(rd.phase.PeakHeap)/1e6)
		f.Fetch, f.Get = f.Fetch.add(rd.final.Fetch), f.Get.add(rd.final.Get)
		f.VariantMisses += rd.final.VariantMisses
	}
	rep.add("latency_p50_ms", "ms", ms(p50), fmt.Sprintf("%s, n=%d%s", op, n, support(ok50)))
	rep.add(fmt.Sprintf("latency_p%d_ms", int(tailQ*100)), "ms", ms(pT), fmt.Sprintf("%s, n=%d%s", op, n, support(okT)))
	rep.add("ops_per_s", "1/s", float64(n-rep.failed)/el.Seconds(),
		fmt.Sprintf("%d ops in %.2f s at %d connections", n-rep.failed, el.Seconds(), r.cfg.conns))
	rep.add("setup_s", "s", median(setups), "median of the rounds' set-ups: "+fmtFloats(setups))
	rep.add("peak_heap_mb", "MB", median(peaks), fmt.Sprintf("median of the rounds' peak /memory/classes/heap/objects:bytes: %s (%d samples)",
		fmtFloats(peaks), samples))
	rep.add("download_fetch_kb", "KB", ratio(float64(f.Fetch.Bytes+f.Get.Bytes)/1e3, float64(f.VariantMisses)),
		fmt.Sprintf("%d PSP fetches + %d store gets over %d reconstructions", f.Fetch.Calls, f.Get.Calls, f.VariantMisses))
	rep.add("recon_psnr_db", "dB", rep.det["recon_psnr_db"], fmt.Sprintf("mean of %d: %s", len(recPSNR), fmtFloats(recPSNR)))
	rep.add("public_psnr_db", "dB", rep.det["public_psnr_db"], fmt.Sprintf("mean of %d originals", len(pubPSNR)))
	rep.add("upload_size_ratio", "ratio", rep.det["upload_size_ratio"], "(public + sealed secret bytes) / original bytes")
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(s, " ")
}

// env records the machine and settings every result was measured with.
func env(cfg config) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"trace":       cfg.trace,
		"seconds":     cfg.seconds,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu":         cpu,
		"connections": cfg.conns,
	}
}

// print writes the text report and, last, the one-line JSON result.
func (rep *report) print(cfg config) error {
	w := bufio.NewWriter(os.Stdout)
	e, _ := json.Marshal(map[string]any{"env": env(cfg)})
	fmt.Fprintf(w, "%s\n", e)
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-36s %12.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "failed operation: %s\n", f)
	}
	for _, c := range rep.checks {
		fmt.Fprintf(w, "failed check: %s\n", c)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range rep.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return w.Flush()
}

// writeSpans writes a traced run's spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

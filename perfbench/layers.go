package main

import (
	"fmt"
	"path/filepath"
	"time"

	"p3/internal/cache"
)

// layerMetrics computes the traced run's per-layer metrics. Spans of timed
// requests give the http and proxy rows; the backend latency rows use every
// traced call of the run (set-up, warm-up, timed phase and checks), so a
// layer idle in the timed phase still reports its latency; the counts are
// the timed phase's, over all its requests.
func (r *runState) layerMetrics(rep *report, res []opResult, ph phaseReport) error {
	spans := r.cli.rec.take()
	var calS, sweeps []float64
	var diskBytes, putBytes int64
	for k, rd := range r.rounds {
		// Each round's server numbers its spans from the same base; the
		// round goes into bits below the server's base bit.
		for _, s := range rd.final.Spans {
			s.ID |= uint64(k) << 48
			if s.Parent&serverSpanBase != 0 {
				s.Parent |= uint64(k) << 48
			}
			spans = append(spans, s)
		}
		calS = append(calS, rd.dep.srv.ready.CalibrationS)
		sweeps = append(sweeps, float64(rd.dep.srv.ready.Sweeps))
		diskBytes += rd.final.DiskBytes
		putBytes += rd.final.Put.Bytes
	}
	path := filepath.Join(workDir(), "traces", fmt.Sprintf("%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}

	clients := map[uint64]span{} // by request id
	byID := map[uint64]span{}
	children := map[uint64][]span{} // by parent span id
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "client" {
			clients[s.Req] = s
		}
	}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}

	var overhead, handler, self []time.Duration
	backend := map[string][]time.Duration{}
	nested := 0
	for _, s := range spans {
		if s.Name == "client" {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok || s.Start < parent.Start || s.End > parent.End {
			r.failCheck("span %s of request %d does not nest in its parent", s.Name, s.Req)
			continue
		}
		if c, ok := clients[s.Req]; !ok || s.Start < c.Start || s.End > c.End {
			r.failCheck("span %s of request %d lies outside its client span", s.Name, s.Req)
			continue
		}
		nested++
		if s.Name != "proxy" {
			backend[s.Name] = append(backend[s.Name], s.dur())
			continue
		}
		var iv []interval
		for _, c := range children[s.ID] {
			iv = append(iv, interval{c.Start, c.End})
		}
		st := selfTime(interval{s.Start, s.End}, iv)
		if st < 0 {
			r.failCheck("negative self time in request %d", s.Req)
		}
		if parent.Phase == "timed" {
			handler = append(handler, s.dur())
			self = append(self, st)
			overhead = append(overhead, parent.dur()-s.dur())
		}
	}

	// Tracing overhead: traced against untraced requests of the same phase.
	var tracedLat, plainLat []time.Duration
	for _, res := range res {
		if res.traced {
			tracedLat = append(tracedLat, res.lat)
		} else {
			plainLat = append(plainLat, res.lat)
		}
	}

	p50 := func(name string, d []time.Duration, what string) {
		v, _ := percentile(d, 0.5, 0)
		rep.add(name, "ms", ms(v), fmt.Sprintf("%s, n=%d", what, len(d)))
	}
	p50("http.overhead_ms_p50", overhead, "client span minus proxy span, timed traced requests")
	p50("proxy.handler_ms_p50", handler, "proxy span, timed traced requests")
	p95, _ := percentile(handler, 0.95, 0)
	rep.add("proxy.handler_ms_p95", "ms", ms(p95), fmt.Sprintf("n=%d", len(handler)))
	p50("proxy.self_ms_p50", self, "proxy span minus its psp/store child spans")

	hitRatio := func(s cache.Stats) float64 {
		return ratio(float64(s.Hits), float64(s.Hits+s.Misses+s.Coalesced))
	}
	rep.add("cache.variants.hit_ratio", "ratio", hitRatio(ph.Variants),
		fmt.Sprintf("%d hits, %d misses, %d coalesced", ph.Variants.Hits, ph.Variants.Misses, ph.Variants.Coalesced))
	rep.add("cache.variants.coalesced", "count", float64(ph.Variants.Coalesced), "timed phase")
	rep.add("cache.variants.evictions", "count", float64(ph.Variants.Evictions), "timed phase")
	rep.add("cache.secrets.hit_ratio", "ratio", hitRatio(ph.Secrets),
		fmt.Sprintf("%d hits, %d misses, %d coalesced", ph.Secrets.Hits, ph.Secrets.Misses, ph.Secrets.Coalesced))
	rep.add("cache.secrets.coalesced", "count", float64(ph.Secrets.Coalesced), "timed phase")

	p50("psp.fetch_ms_p50", backend["psp.fetch"], "all traced fetches")
	rep.add("psp.fetch_count", "count", float64(ph.Fetch.Calls), "timed phase")
	rep.add("psp.fetch_kb", "KB", float64(ph.Fetch.Bytes)/1e3, "timed phase")
	p50("psp.upload_ms_p50", backend["psp.upload"], "all traced uploads")
	rep.add("psp.upload_count", "count", float64(ph.Upload.Calls), "timed phase")
	p50("store.get_ms_p50", backend["store.get"], "all traced gets")
	rep.add("store.get_count", "count", float64(ph.Get.Calls), "timed phase")
	p50("store.put_ms_p50", backend["store.put"], "all traced puts")
	rep.add("store.put_count", "count", float64(ph.Put.Calls), "timed phase")
	rep.add("store.disk_bytes_per_secret_byte", "ratio", ratio(float64(diskBytes), float64(putBytes)),
		fmt.Sprintf("%d bytes on disk / %d sealed bytes put", diskBytes, putBytes))
	rs := r.replay

	p50("codec.split_ms_p50", rs.split, "replayed Codec.SplitBytes")
	rep.add("codec.split_alloc_kb", "KB", median(rs.splitAlloc)/1e3, "median per split")
	p50("codec.join_ms_p50", rs.join, "replayed Codec.JoinProcessedBytes")
	rep.add("codec.join_alloc_mb", "MB", median(rs.joinAlloc)/1e6, "median per join")
	p50("jpegx.decode_ms_p50", rs.decode, "replayed p3.DecodeImage of the original")
	p50("jpegx.encode_ms_p50", rs.encode, "replayed Image.EncodeJPEG of the join")
	p50("imaging.op_ms_p50", rs.op, "replayed Transform.Apply of the PSP chain")

	rep.add("calibration.s", "s", median(calS), "median of the rounds' Calibrate: "+fmtFloats(calS))
	rep.add("calibration.sweeps", "count", median(sweeps), "median of the rounds")

	ops := float64(max(len(res), 1))
	rep.add("runtime.cpu_ms_per_op", "ms", float64(ph.CPUNs)/1e6/ops, "server process user+system CPU")
	rep.add("runtime.alloc_mb_per_op", "MB", float64(ph.AllocBytes)/1e6/ops, "server process")
	rep.add("runtime.gc_cycles", "count", float64(ph.GCCycles), "server process, timed phase")
	rep.add("runtime.gc_pause_ms_total", "ms", float64(ph.GCPauseNs)/1e6, "server process, timed phase")

	tp, _ := percentile(tracedLat, 0.5, 0)
	up, _ := percentile(plainLat, 0.5, 0)
	rep.add("trace.overhead_ms_p50", "ms", ms(tp-up),
		fmt.Sprintf("p50 of %d traced minus p50 of %d untraced timed requests; %d spans nest, written to %s",
			len(tracedLat), len(plainLat), nested, path))
	return nil
}

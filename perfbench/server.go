package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"p3"
	"p3/internal/cache"
	"p3/internal/metrics"
	"p3/internal/proxy"
	"p3/internal/psp"
)

// The server side runs in its own process, so the client's allocations and
// CPU stay out of the proxy's heap, GC and CPU figures. It builds the stack,
// calibrates the proxy under test, reports its addresses on one JSON line,
// then answers one JSON line per command read from its input.

// Stack shape: the stack cmd/p3load builds, with admission control off.
const (
	storeShards   = 3
	storeReplicas = 2
)

// serverSpanBase marks span ids the server process assigns.
const serverSpanBase = 1 << 62

// serverReady is the first line the server writes.
type serverReady struct {
	Proxy        string  `json:"proxy"`
	Uploader     string  `json:"uploader"`
	PSP          string  `json:"psp"`
	CalibrationS float64 `json:"calibration_s"`
	Sweeps       uint64  `json:"sweeps"`
}

// command is one line of server input.
type command struct {
	Cmd string `json:"cmd"` // start | stop | finish
}

// phaseReport is the server's view of one timed phase.
type phaseReport struct {
	Variants    cache.Stats `json:"variants"`
	Secrets     cache.Stats `json:"secrets"`
	Fetch       ioCounts    `json:"fetch"`
	Upload      ioCounts    `json:"upload"`
	Get         ioCounts    `json:"get"`
	Put         ioCounts    `json:"put"`
	PeakHeap    uint64      `json:"peak_heap_bytes"`
	CPUNs       int64       `json:"cpu_ns"`
	AllocBytes  uint64      `json:"alloc_bytes"`
	GCCycles    uint64      `json:"gc_cycles"`
	GCPauseNs   uint64      `json:"gc_pause_ns"`
	HeapSamples int         `json:"heap_samples"`
}

// finalReport covers the whole run after the proxy under test calibrated.
type finalReport struct {
	Fetch         ioCounts       `json:"fetch"`
	Get           ioCounts       `json:"get"`
	Put           ioCounts       `json:"put"`
	VariantMisses uint64         `json:"variant_misses"`
	PubSize       map[string]int `json:"pub_size"`
	SecSize       map[string]int `json:"sec_size"`
	DiskBytes     int64          `json:"disk_bytes"`
	Spans         []span         `json:"spans"`
}

// counters is the state a phase report is the difference of.
type counters struct {
	variants, secrets       cache.Stats
	fetch, upload, get, put ioCounts
	cpuNs                   int64
	allocBytes, gcCycles    uint64
	gcPauseNs               uint64
}

type server struct {
	photos *tracedPhotos
	store  *tracedStore
	// underTest serves the timed phase; downloads is the proxy whose
	// variant-cache misses are the run's reconstructions.
	underTest, downloads *proxy.Proxy
	closers              []func()
	dataDir              string
	ready                counters
	phase                counters
	stopHeap             chan struct{}
	heapDone             chan heapPeak
}

type heapPeak struct {
	peak    uint64
	samples int
}

// serve runs the server side of one run until its input ends.
func serve(workload, dataDir string, in io.Reader, out io.Writer) error {
	rec := newRecorder(serverSpanBase)
	pspSrv := httptest.NewServer(psp.NewServer(psp.FacebookLike()))
	defer pspSrv.Close()

	shards := make([]p3.SecretStore, storeShards)
	for i := range shards {
		disk, err := p3.NewDiskSecretStore(filepath.Join(dataDir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return err
		}
		shards[i] = disk
	}
	sharded, err := p3.NewShardedSecretStore(shards, p3.WithShardReplicas(storeReplicas))
	if err != nil {
		return err
	}
	s := &server{
		photos:  &tracedPhotos{inner: p3.NewHTTPPhotoService(pspSrv.URL), rec: rec, pubSize: map[string]int{}},
		store:   &tracedStore{inner: sharded, rec: rec, secSize: map[string]int{}},
		dataDir: dataDir,
	}
	key, err := p3.NewKey()
	if err != nil {
		return err
	}
	// newProxy builds a proxy over the shared PSP and store, serving HTTP
	// until serve returns; calibrated ones are ready to reconstruct.
	newProxy := func(name string, calibrated bool) (*proxy.Proxy, string, error) {
		codec, err := p3.New(key)
		if err != nil {
			return nil, "", err
		}
		px := proxy.New(codec, s.photos, s.store,
			proxy.WithMetricsRegistry(metrics.NewRegistry()), proxy.WithMetricsName(name))
		srv := httptest.NewServer(tracedHandler(rec, "proxy", px))
		s.closers = append(s.closers, srv.Close, px.Close)
		if calibrated {
			if _, err := px.Calibrate(context.Background()); err != nil {
				return nil, "", fmt.Errorf("calibrate %s: %w", name, err)
			}
		}
		return px, srv.URL, nil
	}
	defer func() {
		for _, c := range s.closers {
			c()
		}
	}()
	// The proxy under test serves the timed phase. On the view workloads it
	// is the recipient of photos a separate uploader proxy uploads: in the
	// paper sender and recipient run separate proxies that share only the
	// key. The uploader needs no calibration.
	start := time.Now()
	underTest, url, err := newProxy("under-test", true)
	if err != nil {
		return err
	}
	ready := serverReady{Proxy: url, Uploader: url, PSP: pspSrv.URL,
		CalibrationS: time.Since(start).Seconds(), Sweeps: underTest.Stats().Calibration.Sweeps}
	s.underTest, s.downloads = underTest, underTest
	if workload != "album-upload" {
		if _, ready.Uploader, err = newProxy("uploader", false); err != nil {
			return err
		}
	}
	s.ready = s.snapshot(false)

	enc := json.NewEncoder(out)
	if err := enc.Encode(ready); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var c command
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			return fmt.Errorf("bad command %q: %w", sc.Text(), err)
		}
		var reply any
		switch c.Cmd {
		case "start":
			// The timed phase starts from a collected heap, so its peak is
			// the phase's own and not set-up garbage awaiting collection.
			runtime.GC()
			s.phase = s.snapshot(true)
			s.stopHeap, s.heapDone = make(chan struct{}), make(chan heapPeak, 1)
			go sampleHeap(s.stopHeap, s.heapDone)
			reply = struct{}{}
		case "stop":
			close(s.stopHeap)
			hp := <-s.heapDone
			now := s.snapshot(true)
			reply = phaseReport{
				Variants:    subStats(now.variants, s.phase.variants),
				Secrets:     subStats(now.secrets, s.phase.secrets),
				Fetch:       now.fetch.sub(s.phase.fetch),
				Upload:      now.upload.sub(s.phase.upload),
				Get:         now.get.sub(s.phase.get),
				Put:         now.put.sub(s.phase.put),
				PeakHeap:    hp.peak,
				HeapSamples: hp.samples,
				CPUNs:       now.cpuNs - s.phase.cpuNs,
				AllocBytes:  now.allocBytes - s.phase.allocBytes,
				GCCycles:    now.gcCycles - s.phase.gcCycles,
				GCPauseNs:   now.gcPauseNs - s.phase.gcPauseNs,
			}
		case "recipient":
			// A recipient proxy for album-upload's checks: its downloads
			// must fetch the secret parts from the store, not from the
			// uploading proxy's cache.
			before := s.photos.fetch.snap()
			px, url, err := newProxy("recipient", true)
			if err != nil {
				return err
			}
			// Its calibration probe is not a download.
			s.ready.fetch = s.ready.fetch.add(s.photos.fetch.snap().sub(before))
			s.downloads = px
			reply = map[string]string{"url": url}
		case "finish":
			reply, err = s.finish(rec)
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown command %q", c.Cmd)
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
	return sc.Err()
}

func (s *server) finish(rec *recorder) (finalReport, error) {
	now := s.snapshot(false)
	r := finalReport{
		Fetch:         now.fetch.sub(s.ready.fetch),
		Get:           now.get.sub(s.ready.get),
		Put:           now.put.sub(s.ready.put),
		VariantMisses: s.downloads.Stats().Variants.Misses,
		Spans:         rec.take(),
	}
	s.photos.mu.Lock()
	r.PubSize = s.photos.pubSize
	s.photos.mu.Unlock()
	s.store.mu.Lock()
	r.SecSize = s.store.secSize
	s.store.mu.Unlock()
	err := filepath.WalkDir(s.dataDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			r.DiskBytes += info.Size()
		}
		return err
	})
	return r, err
}

// snapshot reads every counter a report is computed from; withRuntime adds
// the process's CPU, allocation and GC counters.
func (s *server) snapshot(withRuntime bool) counters {
	st := s.underTest.Stats()
	c := counters{
		variants: st.Variants,
		secrets:  st.Secrets,
		fetch:    s.photos.fetch.snap(),
		upload:   s.photos.upload.snap(),
		get:      s.store.get.snap(),
		put:      s.store.put.snap(),
	}
	if !withRuntime {
		return c
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	samples := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(samples)
	c.allocBytes, c.gcCycles = samples[0].Value.Uint64(), samples[1].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNs = ms.PauseTotalNs
	return c
}

// add sums two phase reports' counters; peaks and samples take the larger.
func (a phaseReport) add(b phaseReport) phaseReport {
	return phaseReport{
		Variants:    addStats(a.Variants, b.Variants),
		Secrets:     addStats(a.Secrets, b.Secrets),
		Fetch:       a.Fetch.add(b.Fetch),
		Upload:      a.Upload.add(b.Upload),
		Get:         a.Get.add(b.Get),
		Put:         a.Put.add(b.Put),
		PeakHeap:    max(a.PeakHeap, b.PeakHeap),
		HeapSamples: a.HeapSamples + b.HeapSamples,
		CPUNs:       a.CPUNs + b.CPUNs,
		AllocBytes:  a.AllocBytes + b.AllocBytes,
		GCCycles:    a.GCCycles + b.GCCycles,
		GCPauseNs:   a.GCPauseNs + b.GCPauseNs,
	}
}

func addStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:      a.Hits + b.Hits,
		Misses:    a.Misses + b.Misses,
		Coalesced: a.Coalesced + b.Coalesced,
		Evictions: a.Evictions + b.Evictions,
	}
}

func subStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:      a.Hits - b.Hits,
		Misses:    a.Misses - b.Misses,
		Coalesced: a.Coalesced - b.Coalesced,
		Evictions: a.Evictions - b.Evictions,
		Entries:   a.Entries,
		Bytes:     a.Bytes,
	}
}

// heapSampleEvery is how often the timed phase samples the heap; while the
// CPUs are saturated the sampler runs less often.
const heapSampleEvery = time.Millisecond

// sampleHeap tracks the maximum of the live heap-object bytes until stop
// closes, then sends it on done.
func sampleHeap(stop <-chan struct{}, done chan<- heapPeak) {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var hp heapPeak
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		rtmetrics.Read(s)
		hp.peak = max(hp.peak, s[0].Value.Uint64())
		hp.samples++
		select {
		case <-stop:
			done <- hp
			return
		case <-t.C:
		}
	}
}

// serveMain is the server process's entry point.
func serveMain(workload, dataDir string) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	return serve(workload, dataDir, os.Stdin, os.Stdout)
}

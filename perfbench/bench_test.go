package main

import (
	"bytes"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"p3/internal/jpegx"
)

// startInProcess runs the server side on goroutines, for tests.
func startInProcess(workload, dir string) (*serverConn, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := serve(workload, dir, inR, outW)
		outW.CloseWithError(io.EOF)
		inR.Close()
		done <- err
	}()
	var once sync.Once
	var err error
	return connect(inW, outR, func() error {
		once.Do(func() {
			inW.Close()
			err = <-done
			os.RemoveAll(dir)
		})
		return err
	})
}

func TestPercentile(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- { // unsorted input
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		q       float64
		want    time.Duration
		support bool
	}{
		{0.5, 50, true},   // 50 samples beyond
		{0.9, 90, true},   // exactly 10 beyond
		{0.95, 95, false}, // 5 beyond
		{0.99, 99, false},
	} {
		got, ok := percentile(s, c.q, minBeyond)
		if got != c.want || ok != c.support {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", c.q, got, ok, c.want, c.support)
		}
	}
	if s[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got, ok := percentile([]time.Duration{7}, 0.5, 0); got != 7 || !ok {
		t.Errorf("percentile of one sample = %v, %v", got, ok)
	}
	if _, ok := percentile(nil, 0.5, 0); ok {
		t.Error("percentile of no samples reported support")
	}
	for _, q := range []float64{0.5, 0.9, 0.95} {
		n := minSamplesFor(q)
		s := make([]time.Duration, n)
		if _, ok := percentile(s, q, minBeyond); !ok {
			t.Errorf("minSamplesFor(%v) = %d does not support it", q, n)
		}
		if _, ok := percentile(s[:n-1], q, minBeyond); ok {
			t.Errorf("minSamplesFor(%v) = %d is not the smallest", q, n)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 140}, {130, 160}}, 50},
		{"nested count once", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to parent", []interval{{50, 120}, {180, 300}}, 60},
		{"outside parent", []interval{{10, 20}, {250, 260}}, 100},
		{"covering parent", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestInputsDeterministic pins that a seed fixes every input: the
// originals' bytes and each workload's request sequence.
func TestInputsDeterministic(t *testing.T) {
	a, err := makeOriginals(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeOriginals(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeOriginals(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[[2]int]int{}
	for i := range a {
		if !bytes.Equal(a[i].jpeg, b[i].jpeg) {
			t.Errorf("original %d differs between runs of one seed", i)
		}
		if bytes.Equal(a[i].jpeg, c[i].jpeg) {
			t.Errorf("original %d is the same under two seeds", i)
		}
		sizes[[2]int{a[i].w, a[i].h}]++
	}
	for _, sz := range photoSizes {
		if sizes[sz] != len(a)/len(photoSizes) {
			t.Errorf("size %v: %d originals, want an equal share", sz, sizes[sz])
		}
	}

	feed := firstViewFeed(7, a)
	if got := firstViewFeed(7, b); !sameKeys(feed, got) {
		t.Error("first-view feed differs between runs of one seed")
	}
	seen := map[string]bool{}
	dynamic := 0
	for _, k := range feed {
		id := string(rune('a'+k.photo)) + k.v.query()
		if seen[id] {
			t.Errorf("feed requests %s twice", id)
		}
		seen[id] = true
		if k.v.size == "" {
			dynamic++
		}
	}
	if share := float64(dynamic) / float64(len(feed)); share < 0.15 || share > 0.25 {
		t.Errorf("dynamic share %.2f, want about one in five", share)
	}

	keys := repeatViewKeys(7, a, 3)
	if !sameKeys(keys, repeatViewKeys(7, b, 3)) {
		t.Error("repeat-view keys differ between runs of one seed")
	}
	for r, k := range keys {
		if want := staticSizes[r%len(staticSizes)].name; k.v.size != want || k.photo/3 != r/9 {
			t.Errorf("repeat-view key %d is %s of photo %d, want %s of a photo of group %d", r, k.v.size, k.photo, want, r/9)
		}
	}
	z1, z2 := newZipfSeq(7, len(keys)), newZipfSeq(7, len(keys))
	for i := 0; i < 1000; i++ {
		if x, y := z1.next(), z2.next(); x != y {
			t.Fatalf("zipf draw %d: %d vs %d", i, x, y)
		}
	}
}

func sameKeys(a, b []viewKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].photo != b[i].photo || a[i].v.query() != b[i].v.query() {
			return false
		}
	}
	return true
}

// TestDeterministicMetrics runs small first-view and album-upload runs
// twice per seed, with the server on goroutines, and checks the metrics
// that depend on the seed alone.
func TestDeterministicMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, c := range []struct {
		workload string
		keys     []string
	}{
		{firstView, []string{"recon_psnr_db", "public_psnr_db", "upload_size_ratio",
			"store.get_count", "cache.variants.misses", "cache.secrets.misses", "psp.fetch_count"}},
		{albumUpload, []string{"recon_psnr_db", "public_psnr_db", "upload_size_ratio"}},
	} {
		var dets []map[string]float64
		for range 2 {
			cfg := defaultConfig(c.workload, 3, 1, false, 2)
			cfg.rounds, cfg.photos, cfg.minOps = 2, 3, 6
			cfg.seconds = 0.1
			cfg.start = startInProcess
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("%s: %d/%d failed, checks %v, failures %v", c.workload, rep.failed, rep.attempted, rep.checks, rep.failures)
			}
			dets = append(dets, rep.det)
		}
		for _, k := range c.keys {
			if dets[0][k] != dets[1][k] {
				t.Errorf("%s %s: %v then %v under one seed", c.workload, k, dets[0][k], dets[1][k])
			}
			if dets[0][k] == 0 {
				t.Errorf("%s %s is 0", c.workload, k)
			}
		}
	}
}

func TestJPEGDims(t *testing.T) {
	for _, c := range []struct{ w, h int }{{75, 56}, {720, 540}, {1, 1}} {
		origs, err := encodeJPEG(window(testBase(c.w, c.h), 0, 0, c.w, c.h, false), 90)
		if err != nil {
			t.Fatal(err)
		}
		w, h, err := jpegDims(origs)
		if err != nil || w != c.w || h != c.h {
			t.Errorf("jpegDims = %d, %d, %v; want %d, %d", w, h, err, c.w, c.h)
		}
		if err := checkDecode(origs, c.w, c.h); err != nil {
			t.Error(err)
		}
		for _, bad := range [][]byte{nil, origs[:10], append([]byte{0, 0}, origs...)} {
			if _, _, err := jpegDims(bad); err == nil {
				t.Errorf("jpegDims accepted %d corrupt bytes", len(bad))
			}
		}
	}
}

func testBase(w, h int) *jpegx.PlanarImage {
	img := jpegx.NewPlanarImage(w, h, 3)
	for _, p := range img.Planes {
		for i := range p {
			p[i] = float64(i % 251)
		}
	}
	return img
}

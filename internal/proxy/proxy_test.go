package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"p3"
	"p3/internal/dataset"
	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/psp"
)

var ctx = context.Background()

// testbed wires a PSP, a blob store, and a calibrated proxy.
type testbed struct {
	psp    *psp.Server
	store  *psp.BlobStore
	pspSrv *httptest.Server
	stSrv  *httptest.Server
	proxy  *Proxy
	key    p3.Key
}

func newProxy(t *testing.T, tb *testbed, key p3.Key) *Proxy {
	t.Helper()
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	return New(codec, p3.NewHTTPPhotoService(tb.pspSrv.URL), p3.NewHTTPSecretStore(tb.stSrv.URL))
}

func newTestbed(t *testing.T, pipeline psp.Pipeline) *testbed {
	t.Helper()
	tb := &testbed{psp: psp.NewServer(pipeline), store: psp.NewBlobStore()}
	tb.pspSrv = httptest.NewServer(tb.psp)
	tb.stSrv = httptest.NewServer(tb.store)
	t.Cleanup(tb.pspSrv.Close)
	t.Cleanup(tb.stSrv.Close)
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	tb.key = key
	tb.proxy = newProxy(t, tb, key)
	if _, err := tb.proxy.Calibrate(ctx); err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	return tb
}

func photoJPEG(t *testing.T, seed int64, w, h int) ([]byte, *jpegx.PlanarImage) {
	t.Helper()
	img := dataset.Natural(seed, w, h)
	coeffs, err := img.ToCoeffs(92, jpegx.Sub420)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	// The reference for PSNR purposes is the JPEG-decoded image, not the
	// pre-compression pixels.
	return buf.Bytes(), coeffs.ToPlanar()
}

func psnr(a, b *jpegx.PlanarImage) float64 {
	var mse float64
	var n int
	for pi := range a.Planes {
		for i := range a.Planes[pi] {
			d := clampT(a.Planes[pi][i]) - clampT(b.Planes[pi][i])
			mse += d * d
			n++
		}
	}
	mse /= float64(n)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func clampT(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// TestEndToEndReconstruction is the paper's full system loop: sender proxy
// splits and uploads; PSP transforms; recipient proxy fetches both parts
// and reconstructs. The paper reports ~34-40 dB for reverse-engineered
// pipelines; we require >= 27 dB for the big variant on both PSP styles.
func TestEndToEndReconstruction(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pipeline psp.Pipeline
		floor    float64
	}{
		{"facebook_like", psp.FacebookLike(), 27},
		{"flickr_like", psp.FlickrLike(), 27},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, tc.pipeline)
			jpegBytes, ref := photoJPEG(t, 42, 640, 480)
			id, err := tb.proxy.Upload(ctx, jpegBytes)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := tb.proxy.DownloadPixels(ctx, id, url.Values{"size": {"big"}})
			if err != nil {
				t.Fatal(err)
			}
			// Ground truth: the PSP's own pipeline applied to the *original*
			// (unsplit) photo at the same size.
			want := imaging.Clamp(tc.pipeline.Op(rec.Width, rec.Height).Apply(ref))
			got := psnr(want, rec)
			if got < tc.floor {
				t.Errorf("reconstruction PSNR %.1f dB, want >= %.1f", got, tc.floor)
			}
			t.Logf("reconstruction PSNR: %.1f dB", got)

			// The public part alone must be much worse — that's the privacy.
			rawPub, err := tb.proxy.photos.FetchPhoto(ctx, id, p3.PhotoVariant{Size: "big"})
			if err != nil {
				t.Fatal(err)
			}
			pubIm, err := jpegx.Decode(bytes.NewReader(rawPub))
			if err != nil {
				t.Fatal(err)
			}
			pubPSNR := psnr(want, pubIm.ToPlanar())
			if pubPSNR > 20 {
				t.Errorf("public part PSNR %.1f dB — too much signal left public", pubPSNR)
			}
			if got-pubPSNR < 10 {
				t.Errorf("reconstruction gain %.1f dB over public part too small", got-pubPSNR)
			}
		})
	}
}

func TestSecretPartCache(t *testing.T) {
	tb := newTestbed(t, psp.FlickrLike())
	jpegBytes, _ := photoJPEG(t, 7, 320, 240)
	id, err := tb.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	// The upload warmed the cache: the uploader's own views cost zero
	// secret-part fetches.
	before := tb.store.GetCount()
	if _, err := tb.proxy.DownloadPixels(ctx, id, url.Values{"size": {"thumb"}}); err != nil {
		t.Fatal(err)
	}
	if got := tb.store.GetCount() - before; got != 0 {
		t.Errorf("store fetched %d times for the uploader's view, want 0 (warmed)", got)
	}
	// A cold proxy (a recipient, or after restart) fetches once for any
	// number of views.
	tb.proxy.InvalidateCaches()
	before = tb.store.GetCount()
	if _, err := tb.proxy.DownloadPixels(ctx, id, url.Values{"size": {"thumb"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.proxy.DownloadPixels(ctx, id, url.Values{"size": {"big"}}); err != nil {
		t.Fatal(err)
	}
	if got := tb.store.GetCount() - before; got != 1 {
		t.Errorf("store fetched %d times for two cold views, want 1 (cache)", got)
	}
}

func TestDownloadRequiresCalibration(t *testing.T) {
	tb := newTestbed(t, psp.FlickrLike())
	fresh := newProxy(t, tb, tb.key)
	jpegBytes, _ := photoJPEG(t, 8, 160, 120)
	id, err := tb.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.DownloadPixels(ctx, id, nil); err == nil {
		t.Error("uncalibrated download must fail")
	}
	if fresh.Calibrated() {
		t.Error("fresh proxy claims calibration")
	}
	if !tb.proxy.Calibrated() {
		t.Error("calibrated proxy denies calibration")
	}
}

func TestWrongKeyFailsAuth(t *testing.T) {
	tb := newTestbed(t, psp.FlickrLike())
	jpegBytes, _ := photoJPEG(t, 9, 160, 120)
	id, err := tb.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	otherKey, _ := p3.NewKey()
	eve := newProxy(t, tb, otherKey)
	if _, err := eve.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eve.DownloadPixels(ctx, id, url.Values{"size": {"big"}}); err == nil {
		t.Error("download with the wrong key must fail authentication")
	}
}

func TestTransparentHTTPInterposition(t *testing.T) {
	tb := newTestbed(t, psp.FlickrLike())
	proxySrv := httptest.NewServer(tb.proxy)
	defer proxySrv.Close()

	// The "application" speaks the PSP protocol to the proxy.
	jpegBytes, _ := photoJPEG(t, 10, 320, 240)
	resp, err := http.Post(proxySrv.URL+"/upload", "image/jpeg", bytes.NewReader(jpegBytes))
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.ID == "" {
		t.Fatal("no photo ID")
	}
	get, err := http.Get(proxySrv.URL + "/photo/" + out.ID + "?size=small")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("download status %s: %s", get.Status, body)
	}
	w, h, _, _, err := jpegx.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("reconstructed bytes not a JPEG: %v", err)
	}
	if w > 130 || h > 130 {
		t.Errorf("small variant %dx%d", w, h)
	}
	// Unknown route.
	nf, _ := http.Get(proxySrv.URL + "/other")
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d", nf.StatusCode)
	}
}

func TestDynamicCropReconstruction(t *testing.T) {
	tb := newTestbed(t, psp.FlickrLike())
	jpegBytes, ref := photoJPEG(t, 11, 400, 300)
	id, err := tb.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	q := url.Values{"crop": {"80,60,240,180"}, "w": {"120"}, "h": {"90"}}
	rec, err := tb.proxy.DownloadPixels(ctx, id, q)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Width != 120 || rec.Height != 90 {
		t.Fatalf("crop download %dx%d", rec.Width, rec.Height)
	}
	want := imaging.Clamp(imaging.Compose{
		imaging.Crop{X: 80, Y: 60, W: 240, H: 180},
		tb.psp.Pipeline.Op(120, 90),
	}.Apply(ref))
	if got := psnr(want, rec); got < 22 {
		t.Errorf("cropped reconstruction PSNR %.1f dB, want >= 22", got)
	}
}

func TestUploadRejectedPropagates(t *testing.T) {
	tb := newTestbed(t, psp.FlickrLike())
	if _, err := tb.proxy.Upload(ctx, []byte("not a jpeg")); err == nil {
		t.Error("junk upload must fail at the split stage")
	}
}

// zeros is an endless body that counts what a handler reads from it.
type zeros struct{ read int64 }

func (z *zeros) Read(p []byte) (int, error) {
	clear(p)
	z.read += int64(len(p))
	return len(p), nil
}

// TestUploadOversizeIs413: a photo upload over the body limit is answered
// 413 Request Entity Too Large, not cut short and reported as a 400 decode
// error.
func TestUploadOversizeIs413(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	p := New(codec, memPhotos{s: psp.NewServer(psp.FlickrLike())}, p3.NewMemorySecretStore())
	body := &zeros{}
	req := httptest.NewRequest(http.MethodPost, "/upload", io.LimitReader(body, maxUploadBytes+1))
	req.ContentLength = maxUploadBytes + 1
	w := httptest.NewRecorder()
	p.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize upload: %d, want 413", w.Code)
	}
	if body.read != 0 {
		t.Errorf("read %d bytes of a body declared over the limit", body.read)
	}
	// A body under the limit still reaches the split, which rejects junk
	// as the client's fault.
	w = httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader([]byte("junk"))))
	if w.Code != http.StatusBadRequest {
		t.Errorf("junk upload: %d, want 400", w.Code)
	}
}

// TestReadBodyLimit covers readBody on bodies with no declared length
// (chunked uploads): one byte over the limit is 413, the limit itself is
// read whole.
func TestReadBodyLimit(t *testing.T) {
	const limit = 1000
	for _, n := range []int64{0, limit - 1, limit, limit + 1, 10 * limit} {
		req := httptest.NewRequest(http.MethodPost, "/upload", io.LimitReader(&zeros{}, n))
		req.ContentLength = -1
		w := httptest.NewRecorder()
		body, ok := readBody(w, req, limit)
		if over := n > limit; ok == over || (over && w.Code != http.StatusRequestEntityTooLarge) {
			t.Errorf("%d-byte body: ok=%v status %d", n, ok, w.Code)
		}
		if ok && int64(len(body)) != n {
			t.Errorf("%d-byte body read as %d bytes", n, len(body))
		}
	}
}

// memPhotos adapts the in-process PSP server to p3.PhotoService directly —
// no HTTP. Together with p3.MemorySecretStore it shows alternate backends
// dropping into the proxy unchanged.
type memPhotos struct{ s *psp.Server }

func (m memPhotos) UploadPhoto(_ context.Context, jpegBytes []byte) (string, error) {
	return m.s.Upload(jpegBytes)
}

func (m memPhotos) FetchPhoto(_ context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	q := v.Query()
	return m.s.Photo(id, q.Get("size"), q.Get("crop"), q.Get("w"), q.Get("h"))
}

func TestInMemoryBackends(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	p := New(codec, memPhotos{s: psp.NewServer(psp.FlickrLike())}, p3.NewMemorySecretStore())
	if _, err := p.Calibrate(ctx); err != nil {
		t.Fatalf("calibrate over in-memory backends: %v", err)
	}
	jpegBytes, ref := photoJPEG(t, 21, 320, 240)
	id, err := p.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.DownloadPixels(ctx, id, url.Values{"size": {"small"}})
	if err != nil {
		t.Fatal(err)
	}
	want := imaging.Clamp(psp.FlickrLike().Op(rec.Width, rec.Height).Apply(ref))
	if got := psnr(want, rec); got < 25 {
		t.Errorf("in-memory reconstruction PSNR %.1f dB, want >= 25", got)
	}
}

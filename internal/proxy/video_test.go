package proxy

// Video serving tests: end-to-end clip round trip over real disk shards,
// frame-addressed downloads through the variant cache, HTTP routes and
// status mapping, and the upload bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"p3"
	"p3/internal/psp"
)

// videoBed wires a proxy over an in-process PSP and a 3-disk-shard
// sharded secret store — the stack the video workload is specified
// against. The proxy is deliberately NOT calibrated: the video path must
// not depend on pipeline calibration.
type videoBed struct {
	store *countingStore
	proxy *Proxy
	codec *p3.Codec
}

func newVideoBed(t *testing.T, opts ...ProxyOption) *videoBed {
	t.Helper()
	root := t.TempDir()
	shards := make([]p3.SecretStore, 3)
	for i := range shards {
		disk, err := p3.NewDiskSecretStore(filepath.Join(root, fmt.Sprintf("shard%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = disk
	}
	sharded, err := p3.NewShardedSecretStore(shards, p3.WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	bed := &videoBed{store: &countingStore{inner: sharded}, codec: codec}
	bed.proxy = New(codec, &countingPhotos{s: psp.NewServer(psp.FacebookLike())}, bed.store, opts...)
	return bed
}

// testClip packs a few synthetic JPEG frames into a P3MJ clip.
func testClip(t *testing.T, frames int) []byte {
	t.Helper()
	jpegs := make([][]byte, frames)
	for i := range jpegs {
		jpegs[i], _ = photoJPEG(t, int64(500+i), 96, 64)
	}
	clip, err := p3.PackMJPEG(jpegs)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func TestVideoServingEndToEnd(t *testing.T) {
	bed := newVideoBed(t)
	clip := testClip(t, 4)

	id, frames, err := bed.proxy.UploadVideo(ctx, clip)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 4 {
		t.Fatalf("upload reports %d frames", frames)
	}

	// The whole-clip download reconstructs every frame exactly (the codec
	// join is coefficient-exact; here we check byte-for-byte against a
	// direct join of the stored parts).
	full, err := bed.proxy.DownloadVideo(ctx, id, url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := bed.store.GetSecret(ctx, id+videoPubSuffix)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := bed.store.GetSecret(ctx, id+videoSecSuffix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bed.codec.JoinVideoBytes(pub, sec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, want) {
		t.Error("proxy clip download differs from direct join")
	}

	// Frame seeks agree with the joined clip, frame by frame.
	joinedFrames, err := p3.UnpackMJPEG(full)
	if err != nil {
		t.Fatal(err)
	}
	for i := range joinedFrames {
		b, err := bed.proxy.DownloadVideo(ctx, id, url.Values{"frame": {fmt.Sprint(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, joinedFrames[i]) {
			t.Errorf("frame %d seek differs from whole-clip join", i)
		}
	}

	st := bed.proxy.Stats()
	if st.VideoUpload.Count != 1 {
		t.Errorf("video upload count %d", st.VideoUpload.Count)
	}
	if st.VideoDownload.Count != 5 {
		t.Errorf("video download count %d", st.VideoDownload.Count)
	}
}

// TestVideoDownloadCached verifies repeats are served from the variant
// cache and the two stored blobs are fetched once, not once per frame.
func TestVideoDownloadCached(t *testing.T) {
	bed := newVideoBed(t)
	id, _, err := bed.proxy.UploadVideo(ctx, testClip(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The upload warmed the blob cache; purge so the first download pays
	// real store reads.
	bed.proxy.InvalidateCaches()
	bed.store.gets.Store(0)

	q := url.Values{"frame": {"1"}}
	first, err := bed.proxy.DownloadVideo(ctx, id, q)
	if err != nil {
		t.Fatal(err)
	}
	gotGets := bed.store.gets.Load()
	if gotGets != 2 {
		t.Errorf("first seek cost %d store reads, want 2 (pub+sec)", gotGets)
	}
	// Seeking the other frames reuses the cached blobs.
	if _, err := bed.proxy.DownloadVideo(ctx, id, url.Values{"frame": {"0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := bed.proxy.DownloadVideo(ctx, id, url.Values{"frame": {"2"}}); err != nil {
		t.Fatal(err)
	}
	if bed.store.gets.Load() != gotGets {
		t.Errorf("frame seeks after the first cost %d extra store reads", bed.store.gets.Load()-gotGets)
	}
	// A repeat of the first seek is a pure variant-cache hit, as is any
	// equivalent spelling of the same frame index — the cache keys on the
	// parsed index, not the raw query string.
	variantsBefore := bed.proxy.Stats().Variants.Hits
	for _, spelling := range []string{"1", "01", "+1", "0000000001"} {
		again, err := bed.proxy.DownloadVideo(ctx, id, url.Values{"frame": {spelling}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Errorf("frame=%s differs from frame=1", spelling)
		}
	}
	if hits := bed.proxy.Stats().Variants.Hits; hits != variantsBefore+4 {
		t.Errorf("variant hits %d, want %d", hits, variantsBefore+4)
	}

	// Recalibration purges photo variants but spares clip renditions:
	// clip reconstruction does not depend on the calibrated pipeline.
	if _, err := bed.proxy.Calibrate(ctx); err != nil {
		t.Fatal(err)
	}
	hitsBefore := bed.proxy.Stats().Variants.Hits
	if _, err := bed.proxy.DownloadVideo(ctx, id, q); err != nil {
		t.Fatal(err)
	}
	if hits := bed.proxy.Stats().Variants.Hits; hits != hitsBefore+1 {
		t.Errorf("post-calibrate seek missed the cache (hits %d, want %d)", hits, hitsBefore+1)
	}
}

// TestVideoHTTPRoutes exercises the wire surface: upload, full and
// frame-addressed download, and the status mapping for hostile input.
func TestVideoHTTPRoutes(t *testing.T) {
	bed := newVideoBed(t, WithVideoMaxBytes(1<<20))
	srv := httptest.NewServer(bed.proxy)
	defer srv.Close()

	clip := testClip(t, 2)
	resp, err := http.Post(srv.URL+"/video/upload", "application/octet-stream", bytes.NewReader(clip))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		ID     string `json:"id"`
		Frames int    `json:"frames"`
	}
	if err := jsonDecode(resp, &up); err != nil {
		t.Fatal(err)
	}
	if up.ID == "" || up.Frames != 2 {
		t.Fatalf("upload response %+v", up)
	}

	get := func(path string) (int, []byte, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header.Get("Content-Type")
	}

	if code, body, ct := get("/video/" + up.ID); code != http.StatusOK || ct != "video/x-p3-mjpeg" {
		t.Errorf("clip download: %d %s (%d bytes)", code, ct, len(body))
	}
	if code, body, ct := get("/video/" + up.ID + "?frame=1"); code != http.StatusOK || ct != "image/jpeg" || len(body) == 0 {
		t.Errorf("frame download: %d %s (%d bytes)", code, ct, len(body))
	}
	for path, want := range map[string]int{
		"/video/" + up.ID + "?frame=xyz": http.StatusBadRequest, // malformed index
		"/video/" + up.ID + "?frame=-1":  http.StatusBadRequest,
		"/video/" + up.ID + "?frame=99":  http.StatusNotFound, // past the end
		"/video/no-such-clip":            http.StatusNotFound,
		"/video/bad..id":                 http.StatusBadRequest,
	} {
		if code, _, _ := get(path); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}

	// Garbage upload bounces as the client's fault.
	resp, err = http.Post(srv.URL+"/video/upload", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: %d", resp.StatusCode)
	}

	// An upload over the configured bound bounces as 413 without being
	// split, whether its length is declared or only found by reading
	// (a chunked body); one at the bound is read and fails as garbage.
	big := make([]byte, 1<<20+1)
	for name, body := range map[string]io.Reader{
		"declared": bytes.NewReader(big),
		"chunked":  io.MultiReader(bytes.NewReader(big)),
	} {
		resp, err = http.Post(srv.URL+"/video/upload", "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversize upload: %d, want 413", name, resp.StatusCode)
		}
	}
	resp, err = http.Post(srv.URL+"/video/upload", "application/octet-stream", bytes.NewReader(big[:1<<20]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("upload at the bound: %d, want 400", resp.StatusCode)
	}
}

// jsonDecode drains and decodes one JSON response body.
func jsonDecode(resp *http.Response, dst any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

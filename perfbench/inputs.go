package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"sync"

	"p3"
	"p3/internal/dataset"
	"p3/internal/jpegx"
)

// Every input below is a pure function of the workload seed: the proxy
// only ever sees the generated bytes and requests.

// photoSizes is the original-size spread (640×480 to 1024×768), and
// qualities the originals' JPEG qualities. Corpora take each in equal
// shares: a seed changes which parts of the base images the photos show and
// the order requests come in, not the mix of sizes and qualities that sets
// per-request cost, so runs under different seeds measure the same work.
var (
	photoSizes = [][2]int{{640, 480}, {800, 600}, {1024, 768}}
	qualities  = []int{85, 90, 95}
)

// staticSizes are the PSP's named renditions with their bounding boxes.
var staticSizes = []struct {
	name string
	box  int
}{{"thumb", 75}, {"small", 130}, {"big", 720}}

// pspMaxStored is the bounding box of the PSP's stored re-encode.
const pspMaxStored = 720

// original is one generated photo.
type original struct {
	jpeg []byte
	w, h int
}

// Base images the originals are cut from. They are the same for every seed:
// natural-image synthesis is slow at these sizes, and fixed scene
// statistics keep the spread between seeds down.
const (
	baseW, baseH = 1280, 960
	baseCount    = 4
)

// makeOriginals generates n distinct originals: photo i has size
// photoSizes[i%3] and quality qualities[(i/3)%3], and shows a seeded
// window of one of the base images, mirrored or not.
func makeOriginals(seed int64, n int) ([]original, error) {
	bases := make([]*jpegx.PlanarImage, baseCount)
	var wg sync.WaitGroup
	for i := range bases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bases[i] = dataset.Natural(int64(0xba5e+i), baseW, baseH)
		}()
	}
	wg.Wait()

	rng := rand.New(rand.NewSource(seed))
	type spec struct {
		base, x, y, w, h int
		mirror           bool
	}
	specs := make([]spec, n)
	for i := range specs {
		sz := photoSizes[i%len(photoSizes)]
		specs[i] = spec{
			base:   rng.Intn(baseCount),
			x:      rng.Intn(baseW - sz[0] + 1),
			y:      rng.Intn(baseH - sz[1] + 1),
			w:      sz[0],
			h:      sz[1],
			mirror: rng.Intn(2) == 1,
		}
	}
	out := make([]original, n)
	errs := make([]error, n)
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				s := specs[i]
				img := window(bases[s.base], s.x, s.y, s.w, s.h, s.mirror)
				b, err := encodeJPEG(img, qualities[(i/len(photoSizes))%len(qualities)])
				out[i], errs[i] = original{jpeg: b, w: s.w, h: s.h}, err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generating originals: %w", err)
		}
	}
	return out, nil
}

// window copies a w×h window of base at (x, y), optionally mirrored.
func window(base *jpegx.PlanarImage, x, y, w, h int, mirror bool) *jpegx.PlanarImage {
	img := jpegx.NewPlanarImage(w, h, len(base.Planes))
	for p, src := range base.Planes {
		dst := img.Planes[p]
		for r := 0; r < h; r++ {
			row := src[(y+r)*base.Width+x : (y+r)*base.Width+x+w]
			out := dst[r*w : (r+1)*w]
			for c := range out {
				if mirror {
					out[c] = row[w-1-c]
				} else {
					out[c] = row[c]
				}
			}
		}
	}
	return img
}

func encodeJPEG(img *jpegx.PlanarImage, quality int) ([]byte, error) {
	coeffs, err := img.ToCoeffs(quality, jpegx.Sub420)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// variant is one requested rendition of a photo.
type variant struct {
	size         string // static rendition name, or "" for a dynamic one
	w, h         int    // dynamic fit-within box
	crop         *p3.CropRect
	wantW, wantH int // dimensions the served rendition must have
}

// query renders the variant as GET /photo query parameters.
func (v variant) query() string {
	q := url.Values{}
	if v.size != "" {
		q.Set("size", v.size)
	} else {
		q.Set("w", strconv.Itoa(v.w))
		q.Set("h", strconv.Itoa(v.h))
		if c := v.crop; c != nil {
			q.Set("crop", fmt.Sprintf("%d,%d,%d,%d", c.X, c.Y, c.W, c.H))
		}
	}
	return q.Encode()
}

// storedDims is the size of the PSP's stored re-encode of a w×h original.
func storedDims(w, h int) (int, int) { return p3.FitWithin(w, h, pspMaxStored, pspMaxStored) }

// staticVariant is the named rendition of a w×h original.
func staticVariant(i, w, h int) variant {
	sw, sh := storedDims(w, h)
	s := staticSizes[i]
	ww, hh := p3.FitWithin(sw, sh, s.box, s.box)
	return variant{size: s.name, wantW: ww, wantH: hh}
}

// dynamicVariant is the j-th dynamic rendition of a feed: a fit-within
// resize cycling through five box widths, cropped for three j in ten. The
// crop origin is seeded; crops sit well inside the smallest stored photo
// (640×480).
func dynamicVariant(rng *rand.Rand, j, w, h int) variant {
	widths := []int{64, 128, 200, 320, 480}
	bw := widths[j%len(widths)]
	v := variant{w: bw, h: bw * 3 / 4}
	srcW, srcH := storedDims(w, h)
	if j%10 < 3 {
		c := &p3.CropRect{X: rng.Intn(64), Y: rng.Intn(64), W: 160, H: 120}
		v.crop, srcW, srcH = c, c.W, c.H
	}
	v.wantW, v.wantH = p3.FitWithin(srcW, srcH, v.w, v.h)
	return v
}

// viewKey is one (photo, variant) pair of a feed.
type viewKey struct {
	photo int
	v     variant
}

// firstViewFeed lists every static rendition of every photo plus a dynamic
// one for three photos in four of each size (so about one request in five
// is dynamic), in a seeded shuffle: each pair is requested exactly once.
func firstViewFeed(seed int64, origs []original) []viewKey {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var feed []viewKey
	j := rng.Intn(10) // the seed rotates which photos get which dynamic rendition
	for p, o := range origs {
		for i := range staticSizes {
			feed = append(feed, viewKey{p, staticVariant(i, o.w, o.h)})
		}
		if (p/len(photoSizes))%4 != 3 {
			feed = append(feed, viewKey{p, dynamicVariant(rng, j, o.w, o.h)})
			j++
		}
	}
	rng.Shuffle(len(feed), func(i, j int) { feed[i], feed[j] = feed[j], feed[i] })
	return feed
}

// repeatViewKeys lists every static rendition of every photo, in groups of
// perRound photos, each group in popularity order (first most popular). The
// named sizes take turns down the order, each with its own seeded order of
// photos, so a seed changes which photos are popular but not how many bytes
// a popular view moves.
func repeatViewKeys(seed int64, origs []original, perRound int) []viewKey {
	rng := rand.New(rand.NewSource(seed ^ 0x2e9ea7))
	var keys []viewKey
	for first := 0; first < len(origs); first += perRound {
		n := min(perRound, len(origs)-first)
		perms := make([][]int, len(staticSizes))
		for i := range perms {
			perms[i] = rng.Perm(n)
		}
		for r := 0; r < n*len(staticSizes); r++ {
			i := r % len(staticSizes)
			p := first + perms[i][r/len(staticSizes)]
			keys = append(keys, viewKey{p, staticVariant(i, origs[p].w, origs[p].h)})
		}
	}
	return keys
}

// zipfSeq draws Zipf(s=1.2)-popular indexes into n keys, deterministically
// from the seed and safe for concurrent callers: the i-th call returns the
// i-th draw.
type zipfSeq struct {
	mu sync.Mutex
	z  *rand.Zipf
}

func newZipfSeq(seed int64, n int) *zipfSeq {
	rng := rand.New(rand.NewSource(seed ^ 0x21bf))
	return &zipfSeq{z: rand.NewZipf(rng, 1.2, 1, uint64(n-1))}
}

func (z *zipfSeq) next() int {
	z.mu.Lock()
	defer z.mu.Unlock()
	return int(z.z.Uint64())
}

// sample returns k distinct indexes below n, in the order a seeded
// permutation draws them.
func sample(seed int64, n, k int) []int {
	perm := rand.New(rand.NewSource(seed ^ 0x5a3b1e)).Perm(n)
	return perm[:min(k, n)]
}

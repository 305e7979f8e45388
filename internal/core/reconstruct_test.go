package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"p3/internal/imaging"
	"p3/internal/jpegx"
)

// naturalImage synthesizes a smooth image with edges and texture, then
// round-trips it through JPEG so tests operate on true quantized
// coefficients.
func naturalImage(t *testing.T, rng *rand.Rand, w, h int, sub jpegx.Subsampling) *jpegx.CoeffImage {
	t.Helper()
	img := jpegx.NewPlanarImage(w, h, 3)
	cx, cy := float64(w)/2, float64(h)/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			fx, fy := float64(x), float64(y)
			v := 120 + 60*math.Sin(fx/9) + 50*math.Cos(fy/13) + 20*math.Sin((fx+fy)/5)
			if math.Hypot(fx-cx, fy-cy) < float64(min(w, h))/4 {
				v += 55 // a disc "object"
			}
			v += rng.Float64()*8 - 4
			img.Planes[0][i] = clampf(v)
			img.Planes[1][i] = clampf(128 + 40*math.Sin(fx/17))
			img.Planes[2][i] = clampf(128 + 40*math.Cos(fy/23))
		}
	}
	im, err := img.ToCoeffs(92, sub)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func psnr(a, b *jpegx.PlanarImage) float64 {
	var mse float64
	var n int
	for pi := range a.Planes {
		for i := range a.Planes[pi] {
			d := clampf(a.Planes[pi][i]) - clampf(b.Planes[pi][i])
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

// TestPixelReconstructionIdentity: pixel-domain recombination with no PSP
// processing must match the coefficient-domain original nearly exactly
// (float DCT rounding only).
func TestPixelReconstructionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := naturalImage(t, rng, 64, 64, jpegx.Sub444)
	for _, threshold := range []int{1, 15, 100} {
		pub, sec, err := Split(im, threshold)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ReconstructPixels(pub.ToPlanar(), sec, threshold, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := im.ToPlanar()
		if got := psnr(want, rec); got < 55 {
			t.Errorf("T=%d: identity pixel reconstruction PSNR %.1f dB, want >= 55", threshold, got)
		}
	}
}

// TestProcessedReconstruction is the paper's central systems claim (§3.3,
// Eq. (2)): when the PSP applies a known linear operator to the public part,
// applying the same operator to the secret and correction images and adding
// recovers the transformed original almost exactly (~49 dB in the paper).
func TestProcessedReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := naturalImage(t, rng, 96, 80, jpegx.Sub444)
	threshold := 15
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	ops := []imaging.Op{
		imaging.Resize{W: 48, H: 40, Filter: imaging.Triangle},
		imaging.Resize{W: 48, H: 40, Filter: imaging.Lanczos3},
		imaging.Resize{W: 33, H: 21, Filter: imaging.CatmullRom},
		imaging.Resize{W: 130, H: 108, Filter: imaging.CatmullRom}, // upscale
		imaging.Crop{X: 16, Y: 8, W: 40, H: 48},
		imaging.Compose{
			imaging.Crop{X: 8, Y: 8, W: 64, H: 64},
			imaging.Resize{W: 32, H: 32, Filter: imaging.Lanczos3},
			imaging.Sharpen{Sigma: 1, Amount: 0.5},
		},
		imaging.GaussianBlur{Sigma: 1.1},
	}
	orig := im.ToPlanar()
	for _, op := range ops {
		// What the PSP serves: op applied to the *decoded public part*,
		// clamped to 8-bit as a real server would.
		served := imaging.Clamp(op.Apply(pub.ToPlanar()))
		rec, err := ReconstructPixels(served, sec, threshold, op)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		want := imaging.Clamp(op.Apply(orig))
		if got := psnr(want, rec); got < 40 {
			t.Errorf("%s: processed reconstruction PSNR %.1f dB, want >= 40", op, got)
		}
	}
}

// TestProcessedReconstructionWrongOperator: using the wrong filter should
// still produce a viewable image but measurably worse than the right one.
func TestProcessedReconstructionWrongOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := naturalImage(t, rng, 96, 96, jpegx.Sub444)
	threshold := 10
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	truth := imaging.Resize{W: 48, H: 48, Filter: imaging.Lanczos3}
	wrong := imaging.Resize{W: 48, H: 48, Filter: imaging.Box}
	served := imaging.Clamp(truth.Apply(pub.ToPlanar()))
	want := imaging.Clamp(truth.Apply(im.ToPlanar()))
	recRight, err := ReconstructPixels(served, sec, threshold, truth)
	if err != nil {
		t.Fatal(err)
	}
	recWrong, err := ReconstructPixels(served, sec, threshold, wrong)
	if err != nil {
		t.Fatal(err)
	}
	pRight, pWrong := psnr(want, recRight), psnr(want, recWrong)
	if pRight <= pWrong {
		t.Errorf("right-op PSNR %.1f <= wrong-op PSNR %.1f", pRight, pWrong)
	}
	if pWrong < 15 {
		t.Errorf("wrong-op reconstruction PSNR %.1f dB unexpectedly catastrophic", pWrong)
	}
}

func TestReconstructRejectsNonLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im := naturalImage(t, rng, 32, 32, jpegx.Sub444)
	pub, sec, err := Split(im, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReconstructPixels(pub.ToPlanar(), sec, 10, imaging.Gamma{G: 2.2})
	if err == nil {
		t.Error("non-linear op must be rejected by ReconstructPixels")
	}
}

// TestReconstructRemapped exercises the §3.3 gamma path: invert the remap,
// reconstruct, re-apply.
func TestReconstructRemapped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := naturalImage(t, rng, 64, 64, jpegx.Sub444)
	threshold := 15
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	g := imaging.Gamma{G: 1.4}
	// PSP applies gamma only (no resize) to the public part.
	served := imaging.Clamp(g.Apply(pub.ToPlanar()))
	rec, err := ReconstructRemapped(served, sec, threshold, imaging.Identity{}, g)
	if err != nil {
		t.Fatal(err)
	}
	want := imaging.Clamp(g.Apply(im.ToPlanar()))
	if got := psnr(want, rec); got < 25 {
		t.Errorf("gamma remap reconstruction PSNR %.1f dB, want >= 25 (some loss expected)", got)
	}
}

// TestSecretPixelImagesAreDifferences: secret and correction images must be
// zero wherever the original had no DC energy and no above-threshold ACs.
func TestSecretPixelImagesZeroForFlatSecret(t *testing.T) {
	luma, _ := jpegx.StandardQuantTables(90)
	im := &jpegx.CoeffImage{Width: 16, Height: 16}
	im.Quant[0] = &luma
	im.Components = []jpegx.Component{{ID: 1, H: 1, V: 1, TqIndex: 0, BlocksX: 2, BlocksY: 2, Blocks: make([]jpegx.Block, 4)}}
	// All coefficients below threshold: secret is all zeros.
	for bi := range im.Components[0].Blocks {
		im.Components[0].Blocks[bi][1] = 3
	}
	_, sec, err := Split(im, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, c := SecretPixelImages(sec, 10)
	for i := range s.Planes[0] {
		if math.Abs(s.Planes[0][i]) > 1e-9 || math.Abs(c.Planes[0][i]) > 1e-9 {
			t.Fatalf("secret/correction images not zero at %d: %v %v", i, s.Planes[0][i], c.Planes[0][i])
		}
	}
}

func TestJoinJPEGEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := naturalImage(t, rng, 72, 56, jpegx.Sub420)
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	out, err := SplitJPEG(buf.Bytes(), key, &Options{Threshold: 15, OptimizeHuffman: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Threshold != 15 {
		t.Errorf("threshold echoed as %d", out.Threshold)
	}
	joined, err := JoinJPEG(out.PublicJPEG, out.SecretBlob, key)
	if err != nil {
		t.Fatal(err)
	}
	// The joined JPEG must decode to the exact original coefficients.
	got, err := jpegx.Decode(bytes.NewReader(joined))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range im.Components {
		for bi := range im.Components[ci].Blocks {
			if got.Components[ci].Blocks[bi] != im.Components[ci].Blocks[bi] {
				t.Fatal("coefficients corrupted across split/join")
			}
		}
	}
}

func TestJoinProcessedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := naturalImage(t, rng, 80, 80, jpegx.Sub444)
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	key, _ := NewKey()
	out, err := SplitJPEG(buf.Bytes(), key, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the PSP: decode public part, resize, re-encode as JPEG.
	pubIm, err := jpegx.Decode(bytes.NewReader(out.PublicJPEG))
	if err != nil {
		t.Fatal(err)
	}
	op := imaging.Resize{W: 40, H: 40, Filter: imaging.CatmullRom}
	resized := imaging.Clamp(op.Apply(pubIm.ToPlanar()))
	coeffs, err := resized.ToCoeffs(95, jpegx.Sub444)
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if err := jpegx.EncodeCoeffs(&served, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	rec, err := JoinProcessed(served.Bytes(), out.SecretBlob, key, op)
	if err != nil {
		t.Fatal(err)
	}
	want := imaging.Clamp(op.Apply(im.ToPlanar()))
	// The served public part was JPEG re-encoded (lossy), so the bar is
	// lower than the known-transform float case but must remain high.
	if got := psnr(want, rec); got < 30 {
		t.Errorf("served-JPEG processed reconstruction PSNR %.1f dB, want >= 30", got)
	}
}

func TestSplitJPEGDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	im := naturalImage(t, rng, 32, 32, jpegx.Sub444)
	var buf bytes.Buffer
	if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
		t.Fatal(err)
	}
	key, _ := NewKey()
	out, err := SplitJPEG(buf.Bytes(), key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Threshold != DefaultThreshold {
		t.Errorf("default threshold = %d, want %d", out.Threshold, DefaultThreshold)
	}
	if _, err := SplitJPEG([]byte("junk"), key, nil); err == nil {
		t.Error("junk input must fail")
	}
}

// TestReconstructPixelsMultiMatchesSingle pins the shared-planes batch path
// to the per-variant path bit for bit: deriving the difference plane once
// and applying N operators must equal N independent ReconstructPixels calls.
func TestReconstructPixelsMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := naturalImage(t, rng, 96, 80, jpegx.Sub444)
	threshold := 15
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	ops := []imaging.Op{
		nil, // identity
		imaging.Resize{W: 48, H: 40, Filter: imaging.Triangle},
		imaging.Crop{X: 16, Y: 8, W: 40, H: 48},
		imaging.GaussianBlur{Sigma: 1.1},
	}
	pubPix := pub.ToPlanar()
	publics := make([]*jpegx.PlanarImage, len(ops))
	for i, op := range ops {
		if op == nil {
			publics[i] = pubPix.Clone()
			continue
		}
		publics[i] = op.Apply(pubPix)
	}
	multi, err := ReconstructPixelsMulti(publics, sec, threshold, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		single, err := ReconstructPixels(publics[i], sec, threshold, op)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		for ci := range single.Planes {
			for pi := range single.Planes[ci] {
				if single.Planes[ci][pi] != multi[i].Planes[ci][pi] {
					t.Fatalf("op %d plane %d sample %d: multi %v, single %v",
						i, ci, pi, multi[i].Planes[ci][pi], single.Planes[ci][pi])
				}
			}
		}
	}
}

// TestSecretPlanesErrors covers the guard rails of the shared-planes API:
// non-linear operators are rejected (they need the remapped path) and a
// public part whose dimensions don't match the operator's output is caught.
func TestSecretPlanesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := naturalImage(t, rng, 48, 48, jpegx.Sub444)
	pub, sec, err := Split(im, 15)
	if err != nil {
		t.Fatal(err)
	}
	sp := DeriveSecretPlanes(sec, 15)
	if _, err := sp.Reconstruct(pub.ToPlanar(), imaging.Gamma{G: 2.2}); err == nil {
		t.Error("non-linear operator accepted")
	}
	op := imaging.Resize{W: 24, H: 24, Filter: imaging.Triangle}
	if _, err := sp.Reconstruct(pub.ToPlanar(), op); err == nil {
		t.Error("mismatched public/operator dimensions accepted")
	}
	if _, err := ReconstructPixelsMulti(
		[]*jpegx.PlanarImage{pub.ToPlanar()}, sec, 15, nil, nil); err == nil {
		t.Error("variant/operator count mismatch accepted")
	}
}

// TestDeriveSecretPlanesScaled: scaled planes reconstruct a downsized
// rendition nearly as well as full-resolution planes put through the same
// resize — the proxy's fast path for small variants.
func TestDeriveSecretPlanesScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	im := naturalImage(t, rng, 128, 96, jpegx.Sub444)
	threshold := 15
	pub, sec, err := Split(im, threshold)
	if err != nil {
		t.Fatal(err)
	}
	op := imaging.Resize{W: 32, H: 24, Filter: imaging.CatmullRom}
	served := imaging.Clamp(op.Apply(pub.ToPlanar()))
	want := imaging.Clamp(op.Apply(im.ToPlanar()))
	for _, denom := range []int{2, 4} {
		sp, err := DeriveSecretPlanesScaledPool(sec, threshold, denom, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sp.Reconstruct(served, op)
		if err != nil {
			t.Fatal(err)
		}
		if got := psnr(want, rec); got < 38 {
			t.Errorf("denom %d: scaled-plane reconstruction PSNR %.1f dB, want >= 38", denom, got)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p3/internal/imaging"
	"p3/internal/jpegx"
)

// This file keeps the two-chain derivation of Eq. (2) — separate secret
// image S = IDCT(x_s) and correction image C = IDCT((Ss − Ss²)·w), each put
// through its own operator chain — as the oracle for the production path,
// which folds the correction into the coefficients and runs one chain on
// D = IDCT(x_s + correction). The two agree to within one LSB after
// rounding: the fixed-point IDCT rounds its output once instead of twice.

// CorrectionImage derives the (Ss − Ss²)·w correction term of Eq. (1) as a
// coefficient image: −2T at every position where the secret part is
// negative, zero elsewhere.
func CorrectionImage(sec *jpegx.CoeffImage, threshold int) *jpegx.CoeffImage {
	t := int32(threshold)
	corr := sec.CloneShapeInto(nil)
	for ci := range sec.Components {
		cb, sb := corr.Components[ci].Blocks, sec.Components[ci].Blocks
		for bi := range sb {
			cb[bi] = jpegx.Block{}
			for k := 1; k < 64; k++ {
				if sb[bi][k] < 0 {
					cb[bi][k] = -2 * t
				}
			}
		}
	}
	return corr
}

// SecretPixelImages converts the secret part into the separate secret and
// correction difference images at full resolution.
func SecretPixelImages(sec *jpegx.CoeffImage, threshold int) (s, c *jpegx.PlanarImage) {
	return unshift(sec.ToPlanar()), unshift(CorrectionImage(sec, threshold).ToPlanar())
}

// secretPixelImagesScaled is SecretPixelImages through the scaled IDCT.
func secretPixelImagesScaled(t *testing.T, sec *jpegx.CoeffImage, threshold, denom int) (s, c *jpegx.PlanarImage) {
	t.Helper()
	si, err := sec.ToPlanarScaled(denom)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := CorrectionImage(sec, threshold).ToPlanarScaled(denom)
	if err != nil {
		t.Fatal(err)
	}
	return unshift(si), unshift(ci)
}

// twoChain is the oracle reconstruction: op applied to S and to C
// separately, both summed onto a copy of the public part.
func twoChain(publicPix, s, c *jpegx.PlanarImage, op imaging.Op) *jpegx.PlanarImage {
	out := publicPix.Clone()
	imaging.AddInto(out, op.Apply(s), 1)
	imaging.AddInto(out, op.Apply(c), 1)
	return imaging.Clamp(out)
}

// roundPix quantizes a clamped reconstruction to the 8-bit samples an
// encoder would see.
func roundPix(p *jpegx.PlanarImage) *jpegx.PlanarImage {
	out := p.Clone()
	for _, pl := range out.Planes {
		for i, v := range pl {
			pl[i] = math.Round(math.Max(0, math.Min(255, v)))
		}
	}
	return out
}

// lsbDiff compares two reconstructions after rounding: the largest sample
// difference and the fraction of samples that differ at all.
func lsbDiff(a, b *jpegx.PlanarImage) (maxAbs float64, frac float64) {
	ra, rb := roundPix(a), roundPix(b)
	var n, diff int
	for pi := range ra.Planes {
		for i, v := range ra.Planes[pi] {
			d := math.Abs(v - rb.Planes[pi][i])
			if d > maxAbs {
				maxAbs = d
			}
			if d != 0 {
				diff++
			}
			n++
		}
	}
	return maxAbs, float64(diff) / float64(n)
}

// TestMergedChainMatchesTwoChainOracle is the contract of the single
// difference-plane chain: against the two-chain oracle, every rounded sample
// is within 1 LSB, few samples differ at all, and fidelity to the unsplit
// original stays within a dB of the oracle's — across thresholds, operators
// (identity, pre-blur + Lanczos + sharpen, thumbnail, crop), the scaled
// IDCT and the gamma path.
//
// Samples differ where the oracle's second IDCT rounding pushes a value
// across a .5 boundary, so the share scales with how dense the correction
// plane is. At the paper's operating points (T = 15, 20) few blocks carry a
// correction and at most 3% of samples differ, with PSNR no more than 1 dB
// below the oracle's. At T = 1 nearly every AC position does; there up to
// 5% differ, and the PSNR of a near-lossless (≈ 60 dB) thumbnail, where one
// extra flipped LSB per hundred samples moves PSNR by a dB, may sit 1.5 dB
// below.
func TestMergedChainMatchesTwoChainOracle(t *testing.T) {
	check := func(t *testing.T, name string, threshold int, got, oracle, want *jpegx.PlanarImage) {
		t.Helper()
		maxFrac, maxLoss := 0.03, 1.0
		if threshold < DefaultThreshold {
			maxFrac, maxLoss = 0.05, 1.5
		}
		maxAbs, frac := lsbDiff(got, oracle)
		pGot, pOracle := psnr(want, roundPix(got)), psnr(want, roundPix(oracle))
		t.Logf("%s: max |Δ| %.0f LSB, %.2f%% differ, PSNR %.2f dB (oracle %.2f)", name, maxAbs, 100*frac, pGot, pOracle)
		if maxAbs > 1 {
			t.Errorf("%s: merged chain differs from oracle by %.0f LSB, want <= 1", name, maxAbs)
		}
		if frac > maxFrac {
			t.Errorf("%s: %.2f%% of samples differ from oracle, want <= %.0f%%", name, 100*frac, 100*maxFrac)
		}
		if pGot < pOracle-maxLoss {
			t.Errorf("%s: PSNR %.2f dB is more than %.1f dB below the oracle's %.2f", name, pGot, maxLoss, pOracle)
		}
	}
	rng := rand.New(rand.NewSource(12))
	const w, h = 384, 288
	for _, sub := range []jpegx.Subsampling{jpegx.Sub420, jpegx.Sub444} {
		im := naturalImage(t, rng, w, h, sub)
		orig := im.ToPlanar()
		for _, threshold := range []int{1, 15, 20} {
			pub, sec, err := Split(im, threshold)
			if err != nil {
				t.Fatal(err)
			}
			pubPix := pub.ToPlanar()
			// What the PSP serves: op applied to the decoded public part,
			// rounded to 8 bits.
			serve := func(op imaging.Op) *jpegx.PlanarImage { return roundPix(op.Apply(pubPix)) }
			truth := func(op imaging.Op) *jpegx.PlanarImage { return roundPix(op.Apply(orig)) }
			name := func(what string) string { return fmt.Sprintf("%s/T=%d/%s", sub, threshold, what) }

			s, c := SecretPixelImages(sec, threshold)
			for _, op := range []imaging.Op{
				imaging.Identity{},
				imaging.Compose{
					imaging.GaussianBlur{Sigma: 0.6},
					imaging.Resize{W: 270, H: 202, Filter: imaging.Lanczos3},
					imaging.Sharpen{Sigma: 0.8, Amount: 0.4},
				},
				imaging.Resize{W: 48, H: 36, Filter: imaging.CatmullRom},
				imaging.Crop{X: 37, Y: 21, W: 180, H: 135},
			} {
				served := serve(op)
				got, err := ReconstructPixels(served, sec, threshold, op)
				if err != nil {
					t.Fatal(err)
				}
				check(t, name(op.String()), threshold, got, twoChain(served, s, c, op), truth(op))
			}

			for _, denom := range []int{2, 4, 8} {
				// Like the proxy's thumbnail path: the scaled plane covers
				// the rendition, which is somewhat smaller still.
				thumb := imaging.Resize{W: w / denom * 3 / 4, H: h / denom * 3 / 4, Filter: imaging.Lanczos3}
				sp, err := DeriveSecretPlanesScaledPool(sec, threshold, denom, nil)
				if err != nil {
					t.Fatal(err)
				}
				served := serve(thumb)
				got, err := sp.Reconstruct(served, thumb)
				if err != nil {
					t.Fatal(err)
				}
				ss, sc := secretPixelImagesScaled(t, sec, threshold, denom)
				check(t, name(fmt.Sprintf("scaled/%d", denom)), threshold, got, twoChain(served, ss, sc, thumb), truth(thumb))
			}

			g := imaging.Gamma{G: 1.4}
			lin := imaging.Resize{W: 192, H: 144, Filter: imaging.Triangle}
			served := roundPix(g.Apply(lin.Apply(pubPix)))
			got, err := ReconstructRemapped(served, sec, threshold, lin, g)
			if err != nil {
				t.Fatal(err)
			}
			oracle := imaging.Clamp(g.Apply(twoChain(g.Inverse().Apply(served), s, c, lin)))
			check(t, name("gamma"), threshold, got, oracle, roundPix(g.Apply(lin.Apply(orig))))
		}
	}
}

// FuzzMergedSecretPlane drives the fold over arbitrary coefficient blocks
// and thresholds: an identity reconstruction through the difference plane
// stays within 1 LSB of the two-chain oracle at every sample.
func FuzzMergedSecretPlane(f *testing.F) {
	f.Add(int64(1), uint16(1), []byte{0x80, 0x7f, 0x01, 0xff, 0x40})
	f.Add(int64(2), uint16(15), []byte("difference plane"))
	f.Add(int64(3), uint16(20), []byte{})
	f.Add(int64(4), uint16(1023), []byte{0xff, 0xff, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, tRaw uint16, data []byte) {
		threshold := 1 + int(tRaw)%MaxThreshold
		rng := rand.New(rand.NewSource(seed))
		sub := jpegx.Sub444
		if seed&1 == 0 {
			sub = jpegx.Sub420
		}
		im := randomCoeffImage(rng, 24+int(uint64(seed)%17), 16+int(uint64(seed)%13), sub)
		// Overwrite leading coefficients with the fuzzer's bytes, spread
		// across the whole signed AC range.
		blocks := im.Components[0].Blocks
		for i, b := range data {
			blk := &blocks[(i/63)%len(blocks)]
			blk[1+i%63] = int32(int8(b)) * 8
		}
		pub, sec, err := Split(im, threshold)
		if err != nil {
			t.Fatal(err)
		}
		pubPix := pub.ToPlanar()
		got, err := ReconstructPixels(pubPix, sec, threshold, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, c := SecretPixelImages(sec, threshold)
		if maxAbs, _ := lsbDiff(got, twoChain(pubPix, s, c, imaging.Identity{})); maxAbs > 1 {
			t.Fatalf("T=%d: merged plane differs from two-chain oracle by %.0f LSB", threshold, maxAbs)
		}
	})
}

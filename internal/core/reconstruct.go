package core

import (
	"fmt"

	"p3/internal/imaging"
	"p3/internal/jpegx"
	"p3/internal/work"
)

// differencePlane is the secret half of Eq. (2) in the pixel domain: the
// single difference image D = IDCT(x_s + correction) = S + C at full
// resolution, with chroma upsampled by the same linear interpolation the
// public decode path uses. One IDCT replaces the two of the separate S and C
// images; the sum differs from S + C only by the fixed-point IDCT's output
// rounding, which now happens once instead of twice (≤ 1 LSB after the
// final rounding).
func differencePlane(sec *jpegx.CoeffImage, threshold int, pool *work.Pool) *jpegx.PlanarImage {
	return unshift(foldCorrection(sec, threshold, pool).ToPlanarPool(pool))
}

// unshift removes the +128 JPEG level shift that ToPlanar applies, turning
// a decoded plane into a pure linear term: unlike a normal decoded JPEG, a
// difference plane's samples range far outside [0, 255], and callers must
// not clamp it before summing.
func unshift(img *jpegx.PlanarImage) *jpegx.PlanarImage {
	for _, p := range img.Planes {
		for i := range p {
			p[i] -= 128
		}
	}
	return img
}

// SecretPlanes is the variant-independent half of pixel-domain
// reconstruction: the difference plane D of Eq. (2), derived once per
// secret part. A PSP serves one photo as many renditions (thumbnail, feed,
// full view), and every one of them applies its own operator A to the
// *same* D — so a multi-variant consumer derives the plane once and
// amortizes the secret part's IDCT across the whole fan-out. Reconstruct
// does not mutate the plane; a SecretPlanes may be shared by concurrent
// reconstructions.
type SecretPlanes struct {
	// D is the unshifted difference plane (no +128 level shift, samples far
	// outside [0, 255]); see differencePlane.
	D *jpegx.PlanarImage

	// Threshold echoes the T the plane was derived at.
	Threshold int
}

// DeriveSecretPlanes computes the reusable difference plane for one secret
// part at full resolution.
func DeriveSecretPlanes(sec *jpegx.CoeffImage, threshold int) *SecretPlanes {
	return DeriveSecretPlanesPool(sec, threshold, nil)
}

// DeriveSecretPlanesPool is DeriveSecretPlanes with the correction fold and
// the IDCT fanned out over bands on pool.
func DeriveSecretPlanesPool(sec *jpegx.CoeffImage, threshold int, pool *work.Pool) *SecretPlanes {
	return &SecretPlanes{D: differencePlane(sec, threshold, pool), Threshold: threshold}
}

// DeriveSecretPlanesScaledPool derives the plane at 1/denom of full
// resolution (denom ∈ {1, 2, 4, 8}) through the scaled inverse DCT: each
// plane sample is the exact box average of the denom×denom full-resolution
// samples it covers, at 1/denom² of the IDCT work. A consumer serving a
// rendition no larger than the scaled plane (e.g. a thumbnail) resizes
// from it instead of from full resolution; the result differs from the
// full-resolution chain only by the box prefilter, which the rendition's
// own decimation dominates.
func DeriveSecretPlanesScaledPool(sec *jpegx.CoeffImage, threshold, denom int, pool *work.Pool) (*SecretPlanes, error) {
	im, err := foldCorrection(sec, threshold, pool).ToPlanarScaledPool(denom, pool)
	if err != nil {
		return nil, err
	}
	return &SecretPlanes{D: unshift(im), Threshold: threshold}, nil
}

// Reconstruct applies Eq. (2) for one served variant: op maps the plane's
// resolution onto the served public part's, exactly as it maps the original
// photo onto that rendition.
func (sp *SecretPlanes) Reconstruct(publicPix *jpegx.PlanarImage, op imaging.Op) (*jpegx.PlanarImage, error) {
	return sp.reconstructPool(publicPix, op, nil)
}

// reconstructPool is Reconstruct with the operator's planes transformed
// concurrently on pool (see applyPlanes).
func (sp *SecretPlanes) reconstructPool(publicPix *jpegx.PlanarImage, op imaging.Op, pool *work.Pool) (*jpegx.PlanarImage, error) {
	if op == nil {
		op = imaging.Identity{}
	}
	if !op.Linear() {
		return nil, fmt.Errorf("core: operator %s is not linear; see ReconstructRemapped", op)
	}
	return addParts(publicPix, applyPlanes(op, sp.D, pool))
}

// applyPlanes is op.Apply(img) with each plane transformed as its own task
// on pool. Operators act on every plane alone (see imaging.Op), so the
// result is bit-identical to op.Apply(img); a nil pool applies op directly.
func applyPlanes(op imaging.Op, img *jpegx.PlanarImage, pool *work.Pool) *jpegx.PlanarImage {
	if pool.Size() == 1 || len(img.Planes) == 1 {
		return op.Apply(img)
	}
	outs := make([]*jpegx.PlanarImage, len(img.Planes))
	_ = pool.Do(len(outs), func(i int) error {
		outs[i] = op.Apply(&jpegx.PlanarImage{Width: img.Width, Height: img.Height, Planes: img.Planes[i : i+1]})
		return nil
	})
	out := &jpegx.PlanarImage{Width: outs[0].Width, Height: outs[0].Height}
	for _, o := range outs {
		out.Planes = append(out.Planes, o.Planes[0])
	}
	return out
}

// ReconstructPixelsMulti reconstructs several served variants of one photo
// from a single secret part: the difference plane derives once, then every
// (publics[i], ops[i]) pair applies its own operator to the shared plane.
// All operators must be linear. Results align with the inputs.
func ReconstructPixelsMulti(publics []*jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, ops []imaging.Op, pool *work.Pool) ([]*jpegx.PlanarImage, error) {
	if len(publics) != len(ops) {
		return nil, fmt.Errorf("core: %d public variants but %d operators", len(publics), len(ops))
	}
	if len(publics) == 0 {
		return nil, nil
	}
	sp := DeriveSecretPlanesPool(sec, threshold, pool)
	out := make([]*jpegx.PlanarImage, len(publics))
	err := pool.Do(len(publics), func(i int) error {
		im, err := sp.reconstructPool(publics[i], ops[i], pool)
		if err != nil {
			return fmt.Errorf("core: variant %d: %w", i, err)
		}
		out[i] = im
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// addParts sums the served public part into the transformed difference
// plane d — the final step of Eq. (2) — and clamps for display. d is owned
// by the caller (a fresh operator output), so the sum lands in it rather
// than in a copy of the public part; publicPix is not modified.
func addParts(publicPix, d *jpegx.PlanarImage) (*jpegx.PlanarImage, error) {
	if d.Width != publicPix.Width || d.Height != publicPix.Height {
		return nil, fmt.Errorf("core: transformed secret is %dx%d but public part is %dx%d — wrong operator?",
			d.Width, d.Height, publicPix.Width, publicPix.Height)
	}
	imaging.AddInto(d, publicPix, 1)
	return imaging.Clamp(d), nil
}

// ReconstructPixels recombines in the pixel domain. publicPix is the decoded
// public part — possibly after the PSP applied a transform — and op is the
// transform the PSP applied (imaging.Identity{} when none). Per Eq. (2):
//
//	A·y = A·(public) + A·(secret + correction)
//
// The returned image is the reconstructed photo, clamped to [0, 255].
//
// op must be linear (op.Linear() == true); for invertible pointwise remaps
// such as gamma, use ReconstructRemapped.
func ReconstructPixels(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, op imaging.Op) (*jpegx.PlanarImage, error) {
	return ReconstructPixelsPool(publicPix, sec, threshold, op, nil)
}

// ReconstructPixelsPool is ReconstructPixels with the correction fold and
// the IDCT fanned out over bands on pool, and the operator applied to each
// plane as its own task. Every sample is computed by the same
// floating-point operations whatever the split, so the result is
// bit-identical to the sequential reconstruction.
func ReconstructPixelsPool(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, op imaging.Op, pool *work.Pool) (*jpegx.PlanarImage, error) {
	return DeriveSecretPlanesPool(sec, threshold, pool).reconstructPool(publicPix, op, pool)
}

// ReconstructRemapped handles the paper's §3.3 extension for one-to-one
// non-linear pointwise remaps (e.g. gamma): invert the remap on the public
// part, reconstruct with the remaining linear operator, then re-apply the
// remap. Some loss is expected (the paper leaves quantifying it to future
// work); tests measure it.
func ReconstructRemapped(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, linear imaging.Op, remap imaging.Invertible) (*jpegx.PlanarImage, error) {
	return ReconstructRemappedPool(publicPix, sec, threshold, linear, remap, nil)
}

// ReconstructRemappedPool is ReconstructRemapped running its inner linear
// reconstruction on pool.
func ReconstructRemappedPool(publicPix *jpegx.PlanarImage, sec *jpegx.CoeffImage, threshold int, linear imaging.Op, remap imaging.Invertible, pool *work.Pool) (*jpegx.PlanarImage, error) {
	unmapped := remap.Inverse().Apply(publicPix)
	rec, err := ReconstructPixelsPool(unmapped, sec, threshold, linear, pool)
	if err != nil {
		return nil, err
	}
	return imaging.Clamp(remap.Apply(rec)), nil
}
